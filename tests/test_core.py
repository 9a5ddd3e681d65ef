"""Domain-type invariants, validation, and the URF1 binary format."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak

from usproc import core
from usproc import io as uio
from usproc.core import (
    HAMMING,
    HANNING,
    RECTANGULAR,
    ApodizationWindow,
    BeamformedImage,
    FocusedTensor,
    ImagingGrid,
    RfDataCube,
    ScattererField,
    TransducerArray,
    TransmitEvent,
    _Handover,
    all_finite,
    validate,
)
from usproc.errors import (
    DimensionMismatchError,
    FileFormatError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
    UsprocError,
)
from usproc.numerics import svd

HUGE = 2 ** 31  # E=1, C=Nt=2**31 declares 2**64 payload bytes


def forged_urf1(path, e, c, nt, fs=40e6, v=1540.0, f0=5e6):
    """A bare URF1 header (40 bytes, no samples) declaring E x C x Nt."""
    path.write_bytes(b"URF1" + struct.pack("<III", e, c, nt)
                     + struct.pack("<ddd", fs, v, f0))
    return path


def make_cube(e=1, c=2, nt=16, v=1540.0):
    events = [TransmitEvent.plane_wave(0.0) for _ in range(e)]
    return RfDataCube(np.zeros((e, c, nt)), 40e6, v, events)


class TestValidate:
    def test_well_formed_cube_ok(self):
        validate(make_cube())  # no raise

    def test_zero_speed_rejected(self):
        cube = make_cube(v=0.0)
        with pytest.raises(NonPositiveSpeedError, match="non-positive-speed"):
            validate(cube)

    def test_nan_sample_rejected(self):
        samples = np.zeros((1, 2, 16))
        samples[0, 1, 3] = np.nan
        cube = RfDataCube(samples, 40e6, 1540.0, [TransmitEvent.plane_wave(0.0)])
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            validate(cube)

    def test_event_count_mismatch(self):
        cube = RfDataCube(np.zeros((2, 2, 4)), 40e6, 1540.0,
                          [TransmitEvent.plane_wave(0.0)])
        with pytest.raises(DimensionMismatchError, match="dimension-mismatch"):
            validate(cube)

    def test_idempotent(self):
        cube = make_cube()
        validate(cube)
        validate(cube)


class TestAllFinite:
    """The blocked finiteness scan against ``np.isfinite(a).all()``."""

    BLOCK_BYTES = 8 * core.BLOCK_ELEMENTS

    @pytest.mark.parametrize("block", [1, 3, 2 ** 40])
    def test_matches_whole_array_check(self, monkeypatch, block):
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((4, 5, 6))
        cases = [base, base.astype(np.complex128), np.asfortranarray(base),
                 base[:, ::2, 1:], np.zeros((0, 3)), np.float64(2.0)]
        for bad in (np.nan, np.inf, -np.inf):
            for index in ((0, 0, 0), (3, 4, 5), (2, 1, 3)):
                a = base.copy()
                a[index] = bad
                cases += [a, np.asfortranarray(a), a[:, ::2, 1:]]
                c = base.astype(np.complex128)
                c[index] = complex(0.0, bad)
                cases.append(c)
        for a in cases:
            assert all_finite(a) == bool(np.isfinite(a).all())

    def test_scan_peak_is_under_one_block(self):
        a = np.zeros(1 << 21)       # 16 MB; its whole-array mask is 2 MB
        a[-1] = np.nan
        ok, peak = traced_peak(all_finite, a)
        assert not ok and peak < self.BLOCK_BYTES

    def test_nan_in_last_sample_raises(self):
        samples = np.zeros((2, 16, 4096))
        samples[-1, -1, -1] = np.nan
        cube = RfDataCube(samples, 40e6, 1540.0,
                          [TransmitEvent.plane_wave(0.0)] * 2)
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            validate(cube)
        grid = ImagingGrid(np.arange(64) * 1e-4, 1e-3 + np.arange(64) * 1e-4)
        values = np.zeros((32, 64, 64))
        values[-1, -1, -1] = np.inf
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample"):
            FocusedTensor(_Handover(values), grid)
        with pytest.raises(ValueError, match="finite"):
            svd(values[-1])

    def test_focused_tensor_check_peak_is_under_one_block(self):
        # a handed-over tensor is frozen in place, so the finiteness scan is
        # all that the constructor allocates
        grid = ImagingGrid(np.arange(64) * 1e-4, 1e-3 + np.arange(64) * 1e-4)
        values = np.zeros((128, 64, 64))         # 4 MB, a 512 KiB mask
        _, peak = traced_peak(FocusedTensor, _Handover(values), grid)
        assert peak < self.BLOCK_BYTES


class TestTypes:
    def test_array_requires_increasing_positions(self):
        pos = [[0.0, 0.0], [-1e-4, 0.0]]
        with pytest.raises(ValueError):
            TransducerArray(pos, 1e-4, 2, 5e6, 40e6)

    def test_array_requires_fs_above_nyquist(self):
        with pytest.raises(ValueError):
            TransducerArray.linear(4, 1e-4, 5e6, 9e6)

    def test_plane_wave_angle_range(self):
        with pytest.raises(ValueError):
            TransmitEvent.plane_wave(2.0)

    def test_grid_axial_positive(self):
        with pytest.raises(ValueError):
            ImagingGrid([0.0, 1e-3], [0.0, 1e-3])
        # a nan coordinate is neither in front of the array nor increasing
        for lateral, axial in (([0.0, 1e-3], [np.nan]),
                               ([0.0, np.nan, 1e-3], [1e-3])):
            with pytest.raises(ValueError):
                ImagingGrid(lateral, axial)

    def test_scatterers_must_be_in_front(self):
        with pytest.raises(ValueError):
            ScattererField([[0.0, -1e-3, 1.0]])

    def test_types_are_immutable(self):
        cube = make_cube()
        with pytest.raises(ValueError):
            cube.samples[0, 0, 0] = 1.0

    def test_focused_tensor_copies_caller_array(self):
        grid = ImagingGrid([0.0, 1e-3], [1e-3, 2e-3])
        values = np.ones((2, 2, 2), dtype=np.complex128)
        tensor = FocusedTensor(values, grid)
        assert values.flags.writeable
        assert not np.shares_memory(tensor.values, values)
        values[0, 0, 0] = 5.0
        assert tensor.values[0, 0, 0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_samples_keep_their_dtype(self, dtype):
        # real data stays float64, complex data complex128; a handed-over
        # array of that dtype is frozen in place, not copied
        grid = ImagingGrid([0.0, 1e-3], [1e-3, 2e-3])
        values = np.ones((2, 2, 2), dtype=dtype)
        tensor = FocusedTensor(_Handover(values), grid)
        assert tensor.values is values and not values.flags.writeable
        assert FocusedTensor(values.tolist(), grid).values.dtype == dtype
        image = BeamformedImage(values[0], grid)
        assert image.rf.dtype == dtype and not image.rf.flags.writeable
        single = np.float32 if dtype is np.float64 else np.complex64
        assert BeamformedImage(values[0].astype(single), grid).rf.dtype == dtype

    def test_beamformed_image_envelope_invariant(self):
        grid = ImagingGrid([0.0], [1e-3])
        rf = np.array([[3.0 + 4.0j]])
        img = BeamformedImage(rf, grid, envelope=np.array([[5.0]]))
        assert img.envelope[0, 0] == 5.0
        with pytest.raises(ValueError):
            BeamformedImage(rf, grid, envelope=np.array([[1.0]]))


class TestApodization:
    @pytest.mark.parametrize("c", [2, 3, 8, 17, 64])
    def test_rectangular_all_ones(self, c):
        assert np.array_equal(ApodizationWindow(RECTANGULAR, c).weights,
                              np.ones(c))

    @pytest.mark.parametrize("kind", [HANNING, HAMMING])
    @pytest.mark.parametrize("c", [3, 8, 15, 64])
    def test_tapers_symmetric(self, kind, c):
        w = ApodizationWindow(kind, c).weights
        assert np.max(np.abs(w - w[::-1])) <= 1e-15

    def test_hanning_formula(self):
        w = ApodizationWindow(HANNING, 5).weights
        expect = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(5) / 4)
        assert np.allclose(w, expect, atol=1e-15)

    def test_odd_length_peak_is_one(self):
        # even lengths peak below 1 under the classical endpoint-zero formula
        assert ApodizationWindow(HANNING, 9).weights.max() == 1.0


class TestUrf1:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((2, 3, 11)).astype(np.float32).astype(float)
        events = [TransmitEvent.plane_wave(a) for a in (0.0, 0.1)]
        cube = RfDataCube(samples, 40e6, 1540.0, events)
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        back, f0 = uio.read_urf1(path, events)
        assert f0 == 5e6
        assert back.fs == cube.fs and back.speed_of_sound == 1540.0
        # the file's float32 values, kept as float32 and read-only
        assert back.samples.dtype == np.float32
        assert not back.samples.flags.writeable
        assert np.array_equal(back.samples, samples)

    def test_cube_copies_caller_array(self):
        samples = np.ones((1, 2, 4))
        cube = RfDataCube(samples, 40e6, 1540.0, [TransmitEvent.plane_wave(0.0)])
        assert samples.flags.writeable
        assert not np.shares_memory(cube.samples, samples)
        samples[0, 0, 0] = 5.0
        assert cube.samples[0, 0, 0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16,
                                       np.int32])
    def test_cube_keeps_float32_widens_other_reals(self, dtype):
        # float32 samples stay float32, any other real input is float64
        samples = np.arange(8).reshape(1, 2, 4).astype(dtype)
        events = [TransmitEvent.plane_wave(0.0)]
        want = np.float32 if dtype == np.float32 else np.float64
        for given in (samples, _Handover(samples.copy())):
            cube = RfDataCube(given, 40e6, 1540.0, events)
            assert cube.samples.dtype == want
            assert np.array_equal(cube.samples, samples)
        # a list carries no dtype: float64
        assert RfDataCube(samples.tolist(), 40e6, 1540.0,
                          events).samples.dtype == np.float64

    def test_handed_over_float32_frozen_in_place(self):
        # a float32 cube handed over is not copied; a caller's is
        samples = np.ones((1, 2, 4), dtype=np.float32)
        events = [TransmitEvent.plane_wave(0.0)]
        copied = RfDataCube(samples, 40e6, 1540.0, events)
        assert not np.shares_memory(copied.samples, samples)
        held = RfDataCube(_Handover(samples), 40e6, 1540.0, events)
        assert held.samples is samples and not samples.flags.writeable

    def test_payload_is_c_order_float32(self, tmp_path):
        # the payload is the (E, C, Nt) cube in C order whatever its layout
        rng = np.random.default_rng(1)
        samples = np.asfortranarray(rng.standard_normal((2, 3, 5)))
        events = [TransmitEvent.plane_wave(a) for a in (0.0, 0.1)]
        path = tmp_path / "t.urf"
        uio.write_urf1(path, RfDataCube(samples, 40e6, 1540.0, events), 5e6)
        assert path.read_bytes()[40:] == samples.astype("<f4").tobytes(order="C")

    def test_read_peak_near_one_payload(self, tmp_path):
        # the payload is read straight into the cube's float32 array, which
        # is handed over: no bytes object, no float64 copy.  The peak is
        # the payload plus validate's one-block finiteness mask (32 KiB,
        # 6% of this 512 KB payload)
        events = [TransmitEvent.plane_wave(0.0)] * 4
        cube = RfDataCube(np.ones((4, 16, 2000)), 40e6, 1540.0, events)
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        payload = path.stat().st_size - 40
        (back, _), peak = traced_peak(uio.read_urf1, path, events)
        assert np.array_equal(back.samples, cube.samples)
        assert back.samples.nbytes == payload
        assert peak < 1.1 * payload, peak / payload

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks after the size check reads short: that is a
        # truncated payload, never an array with samples the file did not
        # fill
        cube = make_cube(e=2, c=3, nt=16)
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(uio, "_check_size", lambda *args: None)
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_urf1(path, cube.events)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.urf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FileFormatError, match="magic"):
            uio.read_urf1(path, [])

    def test_truncated_payload_rejected(self, tmp_path):
        cube = make_cube()
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_urf1(path, cube.events)

    def test_trailing_bytes_rejected(self, tmp_path):
        cube = make_cube()
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_urf1(path, cube.events)

    def test_forged_header_rejected_before_reading(self, tmp_path):
        path = forged_urf1(tmp_path / "f.urf", 1, HUGE, HUGE)
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_urf1(path, [TransmitEvent.plane_wave(0.0)])
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_urf1_header(path)

    def test_write_streams_one_event_at_a_time(self, tmp_path):
        # the payload is the one-shot float32 cast of the cube, written event
        # by event: the peak stays one float32 event (1/32 of the float64
        # cube at E = 16), not the whole float32 copy (1/2 of it)
        rng = np.random.default_rng(2)
        events = [TransmitEvent.plane_wave(0.0)] * 16
        cube = RfDataCube(rng.standard_normal((16, 16, 2000)), 40e6, 1540.0,
                          events)
        path = tmp_path / "t.urf"
        _, peak = traced_peak(uio.write_urf1, path, cube, 5e6)
        assert path.read_bytes()[40:] == cube.samples.astype("<f4").tobytes()
        assert peak < cube.samples.nbytes / 4, peak / cube.samples.nbytes

    def test_empty_payload_of_unholdable_shape_rejected(self, tmp_path):
        # E = 0 declares 0 bytes, which the empty payload holds, but C x Nt
        # float64 values overflow numpy's array size
        path = forged_urf1(tmp_path / "f.urf", 0, 2 ** 32 - 1, 2 ** 32 - 1)
        with pytest.raises(FileFormatError, match="bad header"):
            uio.read_urf1(path, [])
        with pytest.raises(FileFormatError, match="bad header"):
            uio.read_urf1_header(path)

    def test_header_round_trip(self, tmp_path):
        cube = make_cube(e=2, c=3, nt=5)
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        assert uio.read_urf1_header(path) == (2, 3, 5, 40e6, 1540.0, 5e6)

    @pytest.mark.parametrize("dims, floats", [
        ((1, 2, 0), {}),
        ((0, HUGE, 1), {}),
        ((1, 2, 3), {"v": 0.0}),
        ((1, 2, 3), {"v": float("nan")}),
        ((1, 2, 3), {"f0": 0.0}),
        ((1, 2, 3), {"fs": 8e6}),
        ((1, 2, 3), {"fs": float("inf")}),
    ])
    def test_header_describing_no_usable_cube(self, tmp_path, dims, floats):
        path = forged_urf1(tmp_path / "f.urf", *dims, **floats)
        with path.open("ab") as fh:
            fh.write(b"\x00" * (4 * dims[0] * dims[1] * dims[2]))
        with pytest.raises(FileFormatError, match="bad header"):
            uio.read_urf1_header(path)


class TestUim1:
    def test_round_trip_f32_exact(self, tmp_path):
        img = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        path = tmp_path / "i.uim1"
        uio.write_uim1(path, img)
        back = uio.read_uim1(path)
        assert back.shape == (3, 4)
        assert np.array_equal(back, img.astype(np.float32).astype(np.float64))

    def test_sequence_round_trip(self, tmp_path):
        seq = np.arange(24, dtype=np.float32).reshape(4, 2, 3).astype(float)
        path = tmp_path / "s.uim1"
        uio.write_uim1_seq(path, seq)
        assert np.array_equal(uio.read_uim1_seq(path), seq)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "i.uim1"
        uio.write_uim1(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_uim1(path)

    def test_forged_header_rejected_before_reading(self, tmp_path):
        image = tmp_path / "i.uim1"
        image.write_bytes(b"UIM1" + struct.pack("<II", HUGE, HUGE))
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_uim1(image)
        seq = tmp_path / "s.uim1"
        seq.write_bytes(b"UIM1" + struct.pack("<III", 1, HUGE, HUGE))
        with pytest.raises(FileFormatError, match="truncated payload"):
            uio.read_uim1_seq(seq)

    def test_empty_sequence_of_unholdable_shape_rejected(self, tmp_path):
        # T = 0 frames of 2**30 x 2**30 declare 0 bytes in a 16-byte file
        seq = tmp_path / "s.uim1"
        seq.write_bytes(b"UIM1" + struct.pack("<III", 2 ** 30, 2 ** 30, 0))
        with pytest.raises(FileFormatError, match="bad header"):
            uio.read_uim1_seq(seq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, bad):
        img = np.ones((3, 4))
        img[2, 1] = bad
        path = tmp_path / "i.uim1"
        uio.write_uim1(path, img)
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample: pixels"):
            uio.read_uim1(path)
        uio.write_uim1_seq(path, np.stack([np.ones((3, 4)), img]))
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample: pixels"):
            uio.read_uim1_seq(path)

    def test_signalling_nan_pixel_rejected(self, tmp_path):
        # float32 0x7f800001 is a signalling NaN: casting it raises numpy's
        # invalid flag, which must not reach the caller as a warning
        path = tmp_path / "i.uim1"
        path.write_bytes(b"UIM1" + struct.pack("<II", 1, 3)
                         + struct.pack("<3I", 0, 0x3F800000, 0x7F800001))
        with pytest.raises(NonFiniteSampleError, match="non-finite-sample: pixels"):
            uio.read_uim1(path)


#: A header field: small, so that some declared payloads fit the file, or any u32.
DIMS = st.one_of(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))


def forged(magic, dims, floats, exact, tail):
    """``magic``, u32 ``dims``, f64 ``floats``, then ``tail`` repeated to the
    exact declared payload when ``exact`` and it is small, else ``tail``."""
    count = 4 * math.prod(dims)
    body = (tail * count)[:count] if exact and count <= 1024 else tail
    return (magic + struct.pack(f"<{len(dims)}I", *dims)
            + struct.pack(f"<{len(floats)}d", *floats) + body)


#: Random bytes, or a URF1, UIM1 or wrong magic with forged dimensions,
#: header floats (URF1 has three, UIM1 none) and payload.
FILES = st.one_of(
    st.binary(max_size=96),
    st.builds(forged, st.sampled_from([b"URF1", b"UIM1", b"URF0"]),
              st.lists(DIMS, min_size=2, max_size=3),
              st.one_of(st.just(()), st.tuples(*[st.floats()] * 3)),
              st.booleans(), st.binary(min_size=1, max_size=32)))


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=FILES, events=st.integers(0, 3))
    def test_readers_raise_only_usproc_errors(self, tmp_path, data, events):
        path = tmp_path / "f.bin"
        path.write_bytes(data)
        plane = [TransmitEvent.plane_wave(0.0)] * events
        for read in (uio.read_urf1_header, lambda p: uio.read_urf1(p, plane),
                     uio.read_uim1, uio.read_uim1_seq,
                     uio.read_scatterer_field):
            try:
                read(path)
            except UsprocError:
                pass


def test_scatterer_field_text_round_trip(tmp_path):
    field = ScattererField([[1e-3, 2e-3, 0.5], [-2e-3, 1e-2, -1.25]])
    path = tmp_path / "field.txt"
    uio.write_scatterer_field(path, field)
    back = uio.read_scatterer_field(path)
    assert np.array_equal(back.scatterers, field.scatterers)


def test_scatterer_file_comments_ignored(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# header\n0.001 0.002 1.0  # trailing\n\n")
    field = uio.read_scatterer_field(path)
    assert len(field) == 1
