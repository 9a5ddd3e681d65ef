"""Domain-type invariants, validation, and the URF1 binary format."""

import struct
import tracemalloc

import numpy as np
import pytest

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
    validate,
)
from usproc.errors import (
    DimensionMismatchError,
    FileFormatError,
    NonFiniteSampleError,
    NonPositiveSpeedError,
)

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
        assert np.array_equal(back.samples, samples)

    def test_cube_copies_caller_array(self):
        samples = np.ones((1, 2, 4))
        cube = RfDataCube(samples, 40e6, 1540.0, [TransmitEvent.plane_wave(0.0)])
        assert samples.flags.writeable
        assert not np.shares_memory(cube.samples, samples)
        samples[0, 0, 0] = 5.0
        assert cube.samples[0, 0, 0] == 1.0

    def test_payload_is_c_order_float32(self, tmp_path):
        # the payload is the (E, C, Nt) cube in C order whatever its layout
        rng = np.random.default_rng(1)
        samples = np.asfortranarray(rng.standard_normal((2, 3, 5)))
        events = [TransmitEvent.plane_wave(a) for a in (0.0, 0.1)]
        path = tmp_path / "t.urf"
        uio.write_urf1(path, RfDataCube(samples, 40e6, 1540.0, events), 5e6)
        assert path.read_bytes()[40:] == samples.astype("<f4").tobytes(order="C")

    def test_read_peak_below_two_cubes(self, tmp_path):
        # the float64 cube read from the file is handed over, not copied:
        # the peak is that cube plus the float32 payload
        events = [TransmitEvent.plane_wave(0.0)] * 4
        cube = RfDataCube(np.ones((4, 16, 2000)), 40e6, 1540.0, events)
        path = tmp_path / "t.urf"
        uio.write_urf1(path, cube, 5e6)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back, _ = uio.read_urf1(path, events)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.samples, cube.samples)
        assert peak < 1.75 * cube.samples.nbytes, peak / cube.samples.nbytes

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
