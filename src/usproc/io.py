"""Binary and text file formats.

URF1 raw RF cubes::

    bytes 0-3   ASCII "URF1"
    u32 E, u32 C, u32 Nt        (little endian)
    f64 fs, f64 v, f64 f0
    E*C*Nt f32 samples, event-major, channel-next, time-minor

The format intentionally carries no transmit-event metadata; readers attach
events supplied by the caller (the CLI reconstructs them from its config).
:func:`read_urf1` reads the payload with one ``readinto`` straight into the
cube's (E, C, Nt) float32 array, so a read holds one payload's worth of
memory; consumers widen to float64 a block at a time when they compute.

UIM1 images: ASCII "UIM1", u32 Rx, u32 Rz, then Rx*Rz f32 values in
lateral-major order.  Multi-frame sequences extend the header with u32 T
before the payload (T frames back to back).  Readers return float64 pixels
and reject a NaN or Inf value as ``non-finite-sample``, as :func:`read_urf1`
does.

PGM output is binary P5 with maxval 255.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import RfDataCube, ScattererField, TransmitEvent, _Handover, validate
from .errors import DimensionMismatchError, FileFormatError, NonFiniteSampleError

_URF1_MAGIC = b"URF1"
_UIM1_MAGIC = b"UIM1"


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FileFormatError(f"truncated payload: expected {n} bytes of {what}")
    return data


def _read_dims(fh, magic: bytes, fmt: str) -> tuple[int, ...]:
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise FileFormatError(f"wrong magic: {got!r} is not {magic.decode()}")
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), "dimensions"))


def _check_size(fh, count: int, what: str) -> None:
    """Raise unless ``count`` f32 values exactly fill the rest of the file.

    Checked before reading, so a forged header cannot ask for a huge read.
    """
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if 4 * count != held:
        raise FileFormatError(f"truncated payload: header declares {4 * count} "
                              f"bytes of {what}, file holds {held}")


def _read_f32(fh, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float32 payload of ``shape``, read by one ``readinto`` into the
    array itself: no bytes object and no copy."""
    count = math.prod(shape)
    _check_size(fh, count, what)
    # an empty payload can still declare a shape too big for numpy to hold:
    # its other dimensions times the float64 itemsize a consumer widens to
    # must fit an intp
    if 8 * math.prod(max(n, 1) for n in shape) > np.iinfo(np.intp).max:
        raise FileFormatError(f"bad header: {what} of shape {shape} is too "
                              "large for an array")
    out = np.empty(shape, dtype="<f4")
    # short only if the file shrank after the size check: never hand on an
    # array with samples the file did not fill
    got = fh.readinto(out)
    if got != 4 * count:
        raise FileFormatError(f"truncated payload: expected {4 * count} bytes "
                              f"of {what}, read {got}")
    return out


def _read_urf1_header(fh):
    e, c, nt = _read_dims(fh, _URF1_MAGIC, "<III")
    return (e, c, nt) + struct.unpack("<ddd", _read_exact(fh, 24, "header floats"))


def read_urf1_header(path):
    """Read and check a URF1 header; returns (E, C, Nt, fs, v, f0).

    The header must match the file size and describe a cube an array can be
    built for (E, Nt >= 1; finite v > 0; finite fs > 2 f0 > 0), so that a
    caller may size arrays from it before the samples are read.
    """
    with open(path, "rb") as fh:
        e, c, nt, fs, v, f0 = _read_urf1_header(fh)
        _check_size(fh, e * c * nt, "samples")
    if e * nt == 0 or not (0 < v < math.inf and 0 < 2 * f0 < fs < math.inf):
        raise FileFormatError(f"bad header: E={e} Nt={nt} fs={fs} v={v} f0={f0}")
    return e, c, nt, fs, v, f0


def write_urf1(path, cube: RfDataCube, f0: float) -> None:
    validate(cube)
    e, c, nt = cube.samples.shape
    with open(path, "wb") as fh:
        fh.write(_URF1_MAGIC)
        fh.write(struct.pack("<III", e, c, nt))
        fh.write(struct.pack("<ddd", cube.fs, cube.speed_of_sound, f0))
        for event in cube.samples:     # one float32 event at a time
            fh.write(event.astype("<f4", order="C"))


def read_urf1(path, events: list[TransmitEvent]):
    """Read a URF1 file; returns (RfDataCube, f0).

    ``events`` must describe the E transmits (the file stores none).  The
    cube's samples are the file's float32 values, handed over without a
    copy.
    """
    with open(path, "rb") as fh:
        e, c, nt, fs, v, f0 = _read_urf1_header(fh)
        samples = _read_f32(fh, (e, c, nt), "samples")
    cube = RfDataCube(_Handover(samples), fs, v, tuple(events))
    validate(cube)
    return cube, f0


def write_uim1(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionMismatchError("dimension-mismatch: UIM1 image must be 2-D")
    with open(path, "wb") as fh:
        fh.write(_UIM1_MAGIC)
        fh.write(struct.pack("<II", img.shape[0], img.shape[1]))
        fh.write(img.astype("<f4").tobytes(order="C"))


def _read_pixels(fh, shape: tuple[int, ...]) -> np.ndarray:
    # a signalling NaN raises numpy's invalid flag when cast; the readers
    # report it as a non-finite value
    with np.errstate(invalid="ignore"):
        pixels = _read_f32(fh, shape, "pixels").astype(np.float64)
    if not np.all(np.isfinite(pixels)):
        raise NonFiniteSampleError("non-finite-sample: pixels")
    return pixels


def read_uim1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_pixels(fh, _read_dims(fh, _UIM1_MAGIC, "<II"))


def write_uim1_seq(path, frames: np.ndarray) -> None:
    seq = np.asarray(frames, dtype=np.float64)
    if seq.ndim != 3:
        raise DimensionMismatchError("dimension-mismatch: sequence must be (T, Rx, Rz)")
    t, rx, rz = seq.shape
    with open(path, "wb") as fh:
        fh.write(_UIM1_MAGIC)
        fh.write(struct.pack("<III", rx, rz, t))
        fh.write(seq.astype("<f4").tobytes(order="C"))  # frames back to back


def read_uim1_seq(path) -> np.ndarray:
    """Read a multi-frame UIM1 file; returns frames of shape (T, Rx, Rz)."""
    with open(path, "rb") as fh:
        rx, rz, t = _read_dims(fh, _UIM1_MAGIC, "<III")
        return _read_pixels(fh, (t, rx, rz))


def _write_p5(path, unit: np.ndarray) -> None:
    """8-bit binary P5 PGM of a (lateral, axial) map of values in [0, 1]."""
    # PGM raster is row-by-row top to bottom: emit axial rows, lateral columns
    pix = np.round(unit * 255.0).astype(np.uint8).T
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes(order="C"))


def write_pgm(path, log_db: np.ndarray, dynamic_range_db: float) -> None:
    """8-bit binary PGM of a log-compressed image (0 dB -> white)."""
    img = np.asarray(log_db, dtype=np.float64)
    _write_p5(path, np.clip((img + dynamic_range_db) / dynamic_range_db, 0.0, 1.0))


def write_pgm_linear(path, image: np.ndarray) -> None:
    """8-bit binary PGM of a nonnegative map, linearly scaled to its peak."""
    img = np.asarray(image, dtype=np.float64)
    peak = img.max() if img.size else 0.0
    scaled = img / peak if peak > 0 else np.zeros_like(img)
    _write_p5(path, np.clip(scaled, 0.0, 1.0))


def read_scatterer_field(path) -> ScattererField:
    """Text scatterer table: one ``x_m z_m amplitude`` triple per line.

    The file is ASCII and every triple is finite with depth z_m > 0; a line
    that breaks a rule raises FileFormatError naming it.
    """
    rows = []
    # a non-ASCII byte decodes to U+FFFD, which marks its line as bad
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split("#", 1)[0].split()
            if not parts and "\ufffd" not in line:
                continue
            try:
                x, z, amp = map(float, parts)   # ValueError unless 3 numbers
                ok = ("\ufffd" not in line and z > 0
                      and all(map(math.isfinite, (x, z, amp))))
            except ValueError:
                ok = False
            if not ok:
                raise FileFormatError(
                    f"scatterer file line {lineno}: expected ASCII x_m z_m "
                    f"amplitude, finite with z_m > 0, got {line.strip()[:60]!r}")
            rows.append((x, z, amp))
    return ScattererField(np.asarray(rows, dtype=np.float64).reshape(-1, 3))


def write_scatterer_field(path, field: ScattererField) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# x_m z_m amplitude\n")
        for x, z, amp in field.scatterers:
            fh.write(f"{float(x)!r} {float(z)!r} {float(amp)!r}\n")
