"""Binary and text file formats.

URF1 raw RF cubes::

    bytes 0-3   ASCII "URF1"
    u32 E, u32 C, u32 Nt        (little endian)
    f64 fs, f64 v, f64 f0
    E*C*Nt f32 samples, event-major, channel-next, time-minor

The format intentionally carries no transmit-event metadata; readers attach
events supplied by the caller (the CLI reconstructs them from its config).

UIM1 images: ASCII "UIM1", u32 Rx, u32 Rz, then Rx*Rz f32 values in
lateral-major order.  Multi-frame sequences extend the header with u32 T
before the payload (T frames back to back).

PGM output is binary P5 with maxval 255.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import RfDataCube, ScattererField, TransmitEvent, _Handover, validate
from .errors import DimensionMismatchError, FileFormatError

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
    count = math.prod(shape)
    _check_size(fh, count, what)
    raw = _read_exact(fh, 4 * count, what)
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)


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
        fh.write(cube.samples.astype("<f4", order="C"))


def read_urf1(path, events: list[TransmitEvent]):
    """Read a URF1 file; returns (RfDataCube, f0).

    ``events`` must describe the E transmits (the file stores none).
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


def read_uim1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_f32(fh, _read_dims(fh, _UIM1_MAGIC, "<II"), "pixels")


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
        return _read_f32(fh, (t, rx, rz), "pixels")


def write_pgm(path, log_db: np.ndarray, dynamic_range_db: float) -> None:
    """8-bit binary PGM of a log-compressed image (0 dB -> white)."""
    img = np.asarray(log_db, dtype=np.float64)
    scaled = np.clip((img + dynamic_range_db) / dynamic_range_db, 0.0, 1.0)
    pix = np.round(scaled * 255.0).astype(np.uint8)
    # PGM raster is row-by-row top to bottom: emit axial rows, lateral columns
    pix = pix.T
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes(order="C"))


def write_pgm_linear(path, image: np.ndarray) -> None:
    """8-bit binary PGM of a nonnegative map, linearly scaled to its peak."""
    img = np.asarray(image, dtype=np.float64)
    peak = img.max() if img.size else 0.0
    scaled = img / peak if peak > 0 else np.zeros_like(img)
    pix = np.round(np.clip(scaled, 0.0, 1.0) * 255.0).astype(np.uint8).T
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes(order="C"))


def read_scatterer_field(path) -> ScattererField:
    """Text scatterer table: one ``x_m z_m amplitude`` triple per line."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise FileFormatError(
                    f"scatterer file line {lineno}: expected 3 values, got {len(parts)}")
            rows.append([float(p) for p in parts])
    return ScattererField(np.asarray(rows, dtype=np.float64).reshape(-1, 3))


def write_scatterer_field(path, field: ScattererField) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# x_m z_m amplitude\n")
        for x, z, amp in field.scatterers:
            fh.write(f"{float(x)!r} {float(z)!r} {float(amp)!r}\n")
