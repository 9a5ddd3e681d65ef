"""Delay computation, focusing, envelope detection, log compression."""

import tracemalloc

import numpy as np
import pytest

from oracles import (
    analytic_direct,
    delays_per_pixel,
    delays_whole_array,
    focus_per_trace,
)
from usproc.core import (
    ImagingGrid,
    RfDataCube,
    ScattererField,
    TransducerArray,
    TransmitEvent,
)
from usproc.errors import (
    AllZeroEnvelopeError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
    ShapeMismatchError,
)
from usproc.simulator import PulseModel, simulate
from usproc.tof import (
    DelayTensor,
    compute_delays,
    detect_envelope,
    envelope,
    focus,
    log_compress,
)

V = 1540.0


def single_element_array():
    # two-element array straddling the origin is the smallest valid one;
    # tests reference element 0 placed left of center
    return TransducerArray.linear(2, 1e-4, 5e6, 40e6)


class TestComputeDelays:
    def test_straight_round_trip(self):
        arr = TransducerArray(
            [[0.0, 0.0], [1e-4, 0.0]], 1e-4, 2, 5e6, 40e6)
        grid = ImagingGrid([0.0], [10e-3])
        ev = TransmitEvent(scheme="synthetic_aperture", origin=(0.0, 0.0))
        d = compute_delays(arr, [ev], grid, V).delays
        assert d[0, 0, 0, 0] == pytest.approx(2 * 10e-3 / V, rel=1e-12)

    def test_three_four_five_triangle(self):
        arr = TransducerArray(
            [[0.0, 0.0], [1e-4, 0.0]], 1e-4, 2, 5e6, 40e6)
        grid = ImagingGrid([3e-3], [4e-3])
        ev = TransmitEvent(scheme="synthetic_aperture", origin=(0.0, 0.0))
        d = compute_delays(arr, [ev], grid, V).delays
        assert d[0, 0, 0, 0] == pytest.approx(2 * 5e-3 / V, rel=1e-12)

    def test_plane_wave_transmit_leg_depends_only_on_depth(self):
        arr = single_element_array()
        grid = ImagingGrid([-4e-3, 1e-3, 5e-3], [7e-3])
        d = compute_delays(arr, [TransmitEvent.plane_wave(0.0)], grid, V).delays
        elem = arr.element_positions
        for ix, x in enumerate(grid.lateral_coords):
            rx_leg = np.hypot(elem[0, 0] - x, 7e-3) / V
            assert d[0, 0, ix, 0] - rx_leg == pytest.approx(7e-3 / V, rel=1e-12)

    def test_monotone_in_depth(self):
        arr = TransducerArray.linear(8, 1.5e-4, 5e6, 40e6)
        grid = ImagingGrid([2e-3], np.linspace(1e-3, 30e-3, 120))
        d = compute_delays(arr, [TransmitEvent.plane_wave(0.2)], grid, V).delays
        assert np.all(np.diff(d[0, :, 0, :], axis=-1) > 0)


class TestFocus:
    def make_setup(self):
        arr = TransducerArray.linear(8, V / 5e6 / 2, 5e6, 40e6)
        events = [TransmitEvent.plane_wave(0.0)]
        grid = ImagingGrid.regular(-2e-3, 2e-3, 21, 3e-3, 8e-3, 41)
        return arr, events, grid

    def test_zero_cube_zero_tensor(self):
        arr, events, grid = self.make_setup()
        cube = RfDataCube(np.zeros((1, 8, 300)), 40e6, V, events)
        delays = compute_delays(arr, events, grid, V)
        assert not np.any(focus(cube, delays, grid).values)

    def test_exact_sample_hit(self):
        # delay landing exactly on a sample index returns that raw sample
        arr, events, grid0 = self.make_setup()
        fs = 40e6
        k = 17
        tau = k / fs
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((1, 8, 64))
        cube = RfDataCube(samples, fs, V, events)
        grid = ImagingGrid([0.0], [1e-3])
        delays = DelayTensor(np.full((1, 8, 1, 1), tau))
        out = focus(cube, delays, grid)
        assert np.allclose(out.values[:, 0, 0], samples[0, :, k], atol=1e-15)

    def test_out_of_window_is_zero(self):
        arr, events, grid0 = self.make_setup()
        cube = RfDataCube(np.ones((1, 8, 64)), 40e6, V, events)
        grid = ImagingGrid([0.0], [1e-3])
        delays = DelayTensor(np.full((1, 8, 1, 1), 64 / 40e6 + 1e-6))
        assert not np.any(focus(cube, delays, grid).values)

    def test_focused_peak_matches_simulator_truth(self):
        # every channel's raw-trace argmax occurs at the delay the TOF
        # module computes for the scatterer pixel (oracle: simulator)
        arr, events, _ = self.make_setup()
        target = (0.5e-3, 6e-3)
        field = ScattererField([[target[0], target[1], 1.0]])
        cube = simulate(arr, events, field, PulseModel(5e6, 0.6), V, 700, 0.0, 0)
        grid = ImagingGrid([target[0]], [target[1]])
        delays = compute_delays(arr, events, grid, V).delays
        for c in range(8):
            t_peak = np.argmax(np.abs(cube.samples[0, c]))
            assert abs(t_peak - delays[0, c, 0, 0] * 40e6) <= 1.0

    def test_linear_in_samples(self):
        arr, events, grid = self.make_setup()
        rng = np.random.default_rng(1)
        s1 = rng.standard_normal((1, 8, 300))
        s2 = rng.standard_normal((1, 8, 300))
        delays = compute_delays(arr, events, grid, V)
        f = lambda s: focus(RfDataCube(s, 40e6, V, events), delays, grid).values
        lhs = f(2.0 * s1 - 3.0 * s2)
        rhs = 2.0 * f(s1) - 3.0 * f(s2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1)

    def test_shape_mismatch(self):
        arr, events, grid = self.make_setup()
        cube = RfDataCube(np.zeros((1, 8, 64)), 40e6, V, events)
        delays = DelayTensor(np.zeros((1, 7, 1, 1)))
        small = ImagingGrid([0.0], [1e-3])
        with pytest.raises(ShapeMismatchError, match="shape-mismatch"):
            focus(cube, delays, small)

    def test_per_event_stacking(self):
        arr = TransducerArray.linear(4, V / 5e6 / 2, 5e6, 40e6)
        events = [TransmitEvent.plane_wave(a) for a in (0.0, 0.1)]
        grid = ImagingGrid([0.0], [5e-3])
        rng = np.random.default_rng(2)
        cube = RfDataCube(rng.standard_normal((2, 4, 400)), 40e6, V, events)
        delays = compute_delays(arr, events, grid, V)
        stacked = focus(cube, delays, grid, per_event=True)
        summed = focus(cube, delays, grid, per_event=False)
        assert stacked.values.shape == (2, 4, 1, 1)
        assert np.allclose(stacked.values.sum(axis=0), summed.values, atol=1e-15)


class TestFocusMatchesPerTrace:
    """Event-streamed focusing is bit-identical to the per-trace loop."""

    @staticmethod
    def setup(e_count, c_count, nt, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((e_count, c_count, nt))
        samples[rng.random(samples.shape) < 0.1] = -0.0
        fs = 40e6
        # delays from 3 samples before the window to 3 past its end, plus
        # both window edges exactly
        delays = rng.uniform(-3.0, nt + 2.0, (e_count, c_count, 5, 7)) / fs
        delays[..., 0, 0] = 0.0
        delays[..., 0, 1] = (nt - 1) / fs
        events = [TransmitEvent.plane_wave(0.0)] * e_count
        grid = ImagingGrid.regular(-1e-3, 1e-3, 5, 1e-3, 2e-3, 7)
        return RfDataCube(samples, fs, V, events), DelayTensor(delays), grid

    @pytest.mark.parametrize("per_event", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 1), (3, 4, 2),
                                       (1, 6, 50), (7, 5, 50)])
    def test_bit_identical(self, shape, per_event):
        cube, delays, grid = self.setup(*shape, seed=sum(shape))
        out = focus(cube, delays, grid, per_event=per_event).values
        ref = focus_per_trace(cube.samples, cube.fs, delays.delays, per_event)
        assert out.shape == ref.shape
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_sum_of_events_peak_memory(self):
        # the summed form must not hold every event at once: the peak stays
        # under four complex (C, Rx, Rz) tensors, an E-fold tensor does not
        e_count = c_count = 16
        grid = ImagingGrid.regular(-2e-3, 2e-3, 24, 3e-3, 8e-3, 40)
        arr = TransducerArray.linear(c_count, V / 5e6 / 2, 5e6, 40e6)
        events = [TransmitEvent.synthetic_aperture(i, arr)
                  for i in range(e_count)]
        rng = np.random.default_rng(8)
        cube = RfDataCube(rng.standard_normal((e_count, c_count, 500)),
                          40e6, V, events)
        delays = compute_delays(arr, events, grid, V)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = focus(cube, delays, grid, per_event=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.values.shape == (c_count,) + grid.shape
        assert peak < 4 * c_count * grid.shape[0] * grid.shape[1] * 16

    def test_per_event_holds_one_stacked_tensor(self):
        # the (E, C, Rx, Rz) complex result is built once and not copied:
        # 16 E = 256 bytes per (C, Rx, Rz) element at E = 16, plus one
        # event's temporaries and the finiteness scan's byte mask (a second
        # copy would read about 528)
        e_count = c_count = 16
        grid = ImagingGrid.regular(-2e-3, 2e-3, 24, 3e-3, 8e-3, 40)
        arr = TransducerArray.linear(c_count, V / 5e6 / 2, 5e6, 40e6)
        events = [TransmitEvent.synthetic_aperture(i, arr)
                  for i in range(e_count)]
        rng = np.random.default_rng(9)
        cube = RfDataCube(rng.standard_normal((e_count, c_count, 500)),
                          40e6, V, events)
        delays = compute_delays(arr, events, grid, V)
        elements = c_count * grid.shape[0] * grid.shape[1]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = focus(cube, delays, grid, per_event=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.values.shape == (e_count,) + (c_count,) + grid.shape
        assert not out.values.flags.writeable
        assert peak / elements < 320, peak / elements


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFactoredDelays:
    """compute_delays keeps legs; its delays match the stored formula."""

    @staticmethod
    def events(scheme, arr):
        if scheme == "plane_wave":
            return [TransmitEvent.plane_wave(a) for a in (-1.2, -0.3, 0.0, 0.9)]
        return [TransmitEvent.synthetic_aperture(i, arr) for i in (0, 2, 5)]

    @pytest.mark.parametrize("scheme", ["plane_wave", "synthetic_aperture"])
    def test_delays_match_oracles_bitwise(self, scheme):
        arr = TransducerArray.linear(6, V / 5e6 / 2, 5e6, 40e6)
        events = self.events(scheme, arr)
        grid = ImagingGrid.regular(-4e-3, 4e-3, 9, 0.05e-3, 6e-3, 11)
        d = compute_delays(arr, events, grid, V)
        full = d.delays
        assert d.shape == full.shape == (len(events), 6) + grid.shape
        assert not full.flags.writeable
        assert np.array_equal(bits(full),
                              bits(delays_per_pixel(arr, events, grid, V)))
        assert np.array_equal(bits(full),
                              bits(delays_whole_array(arr, events, grid, V)))
        for e in range(len(events)):
            assert np.array_equal(bits(d.event(e)), bits(full[e]))
        if scheme == "plane_wave":
            assert np.any(full < 0)

    @pytest.mark.parametrize("per_event", [False, True])
    @pytest.mark.parametrize("scheme", ["plane_wave", "synthetic_aperture"])
    def test_focus_factored_equals_full(self, scheme, per_event):
        arr = TransducerArray.linear(6, V / 5e6 / 2, 5e6, 40e6)
        events = self.events(scheme, arr)
        grid = ImagingGrid.regular(-4e-3, 4e-3, 9, 0.05e-3, 6e-3, 11)
        rng = np.random.default_rng(11)
        cube = RfDataCube(rng.standard_normal((len(events), 6, 400)),
                          40e6, V, events)
        factored = compute_delays(arr, events, grid, V)
        full = DelayTensor(factored.delays)
        a = focus(cube, factored, grid, per_event=per_event).values
        b = focus(cube, full, grid, per_event=per_event).values
        ref = focus_per_trace(cube.samples, cube.fs, full.delays, per_event)
        assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(bits(a), bits(ref))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_leg_rejected(self):
        # a lateral coordinate whose square overflows makes both legs inf
        arr = TransducerArray.linear(4, V / 5e6 / 2, 5e6, 40e6)
        grid = ImagingGrid([0.0, 1e200], [1e-3])
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            compute_delays(arr, [TransmitEvent.synthetic_aperture(0, arr)],
                           grid, V)
        legs = np.ones((1, 1, 1))
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            DelayTensor.factored(np.full((1, 1, 1), np.nan), legs, V)

    def test_non_positive_speed_rejected(self):
        arr = TransducerArray.linear(4, V / 5e6 / 2, 5e6, 40e6)
        grid = ImagingGrid([0.0], [1e-3])
        with pytest.raises(NonPositiveSpeedError, match="non-positive-speed"):
            compute_delays(arr, [TransmitEvent.plane_wave(0.0)], grid, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_delay_rejected(self):
        # finite legs whose sum over v overflows are caught event by event
        arr = TransducerArray.linear(4, V / 5e6 / 2, 5e6, 40e6)
        grid = ImagingGrid([0.0], [1e4])
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            compute_delays(arr, [TransmitEvent.plane_wave(0.0)], grid, 1e-305)

    def test_peak_memory_independent_of_event_count(self):
        # delays plus summed focusing never hold an (E, C, Rx, Rz) tensor:
        # going from 4 to 32 events adds only the (E, Rx, Rz) transmit legs
        c_count = 32
        grid = ImagingGrid.regular(-2e-3, 2e-3, 24, 3e-3, 8e-3, 40)
        arr = TransducerArray.linear(c_count, V / 5e6 / 2, 5e6, 40e6)
        slab = c_count * grid.shape[0] * grid.shape[1] * 8   # one (C, Rx, Rz)
        peaks = {}
        for e_count in (4, 32):
            events = [TransmitEvent.synthetic_aperture(i, arr)
                      for i in range(e_count)]
            rng = np.random.default_rng(e_count)
            cube = RfDataCube(rng.standard_normal((e_count, c_count, 500)),
                              40e6, V, events)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                delays = compute_delays(arr, events, grid, V)
                focus(cube, delays, grid, per_event=False)
                peaks[e_count] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        tx_growth = (32 - 4) * grid.shape[0] * grid.shape[1] * 8
        assert peaks[32] < peaks[4] + tx_growth + slab // 2, peaks


class TestNegativeDelays:
    def test_accepted_and_contribute_zero(self):
        # a steered plane wave reaches pixels on one side of the array
        # before t = 0; those channels add nothing, the others interpolate
        rng = np.random.default_rng(9)
        samples = rng.standard_normal((1, 4, 64))
        cube = RfDataCube(samples, 40e6, V, [TransmitEvent.plane_wave(0.5)])
        grid = ImagingGrid([0.0], [1e-3])
        d = np.full((1, 4, 1, 1), 10 / 40e6)
        d[0, 1] = -1e-9
        d[0, 3] = -2e-6
        out = focus(cube, DelayTensor(d), grid).values[:, 0, 0]
        assert out[1] == 0 and out[3] == 0
        assert np.allclose(out[[0, 2]], samples[0, [0, 2], 10], atol=1e-15)

    def test_plane_wave_delays_can_be_negative(self):
        arr = TransducerArray.linear(8, V / 5e6 / 2, 5e6, 40e6)
        grid = ImagingGrid([-5e-3, 0.0], [0.1e-3, 5e-3])
        d = compute_delays(arr, [TransmitEvent.plane_wave(1.2)], grid, V)
        assert np.any(d.delays < 0) and np.all(np.isfinite(d.delays))

    def test_full_tensor_copies_caller_array(self):
        d = np.zeros((1, 2, 1, 1))
        delays = DelayTensor(d)
        assert d.flags.writeable
        assert not np.shares_memory(delays.delays, d)
        assert not delays.delays.flags.writeable

    def test_non_finite_still_rejected(self):
        from usproc.errors import NonFiniteSampleError
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            DelayTensor(np.full((1, 1, 1, 1), -np.inf))


class TestEnvelope:
    def test_cosine_amplitude(self):
        n = 256
        t = np.arange(n)
        x = 1.7 * np.cos(2 * np.pi * 8 * t / n)  # on-bin frequency
        env = envelope(x)
        interior = env[n // 8: -n // 8]
        assert np.allclose(interior, 1.7, rtol=0.01)

    def test_zeros(self):
        assert not np.any(envelope(np.zeros(16)))

    def test_windowed_cosine_matches_direct_oracle(self):
        n = 200
        t = np.arange(n)
        w = 1.0 + 0.3 * np.sin(2 * np.pi * t / n)
        x = w * np.cos(2 * np.pi * 20 * t / n)
        env = envelope(x)
        oracle = np.abs(analytic_direct(x))
        assert np.max(np.abs(env - oracle)) <= 1e-10 * oracle.max()
        interior = slice(n // 10, -n // 10)
        assert np.allclose(env[interior], w[interior], rtol=0.02)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        assert np.allclose(envelope(-2.5 * x), 2.5 * envelope(x), atol=1e-12)

    def test_2d_axis_convention(self):
        rng = np.random.default_rng(4)
        img = rng.standard_normal((3, 32))
        env = envelope(img, axis=-1)
        for row in range(3):
            assert np.allclose(env[row], envelope(img[row]), atol=1e-13)


class TestLogCompress:
    def test_examples(self):
        env = np.array([[1.0, 0.1, 0.0]])
        db = log_compress(env, 40.0)
        assert db[0, 0] == 0.0
        assert db[0, 1] == pytest.approx(-20.0, abs=1e-12)
        assert db[0, 2] == -40.0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroEnvelopeError, match="all-zero-envelope"):
            log_compress(np.zeros((2, 2)), 60.0)

    def test_max_exactly_zero(self):
        rng = np.random.default_rng(5)
        db = log_compress(rng.random((5, 6)) + 0.1, 60.0)
        assert db.max() == 0.0 and np.all(db <= 0.0)


def test_detect_envelope_invariant():
    from usproc.core import BeamformedImage
    grid = ImagingGrid.regular(-1e-3, 1e-3, 4, 1e-3, 3e-3, 64)
    rng = np.random.default_rng(6)
    img = BeamformedImage(rng.standard_normal((4, 64)).astype(complex), grid)
    out = detect_envelope(img)
    assert np.allclose(out.envelope, np.abs(out.rf), atol=1e-15)
