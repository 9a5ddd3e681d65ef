"""Command-line front end wiring the modules into reproducible pipelines.

Subcommands: simulate, beamform, recover, deconvolve, clutter, ulm,
metrics, demo.  Every run resolves a flat ``key = value`` configuration
(defaults, then ``--config`` file, then flags), checks every key against its
domain in ``CONFIG_SCHEMA`` before any input is read, logs it to a sidecar
``.config.txt`` next to the primary output, and draws all randomness from
the single ``--seed`` flag, so outputs are byte-reproducible.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import beamform as bf
from . import clutter as cl
from . import io as uio
from . import metrics as mx
from . import sparse as sp
from . import tof
from . import ulm
from .core import (
    HAMMING,
    HANNING,
    RECTANGULAR,
    ApodizationWindow,
    ImagingGrid,
    ScattererField,
    TransducerArray,
    TransmitEvent,
    row_blocks,
)
from .errors import ConfigError, FileFormatError, UsprocError
from .simulator import PulseModel, simulate, transmit_distances

# ---------------------------------------------------------------------------
# Configuration

#: Cap, in elements (2 GiB of float64), on any array whose size config values
#: set; a larger one is a config error before anything is allocated.
MAX_ELEMENTS = 2 ** 28


class Domain(NamedTuple):
    """The values a key accepts: how its raw string parses, what the parsed
    value must satisfy, and the text that errors and the README quote."""

    text: str
    parse: Callable[[str], Any]
    holds: Callable[[Any], bool]


def _ints(least: int) -> Domain:
    return Domain(f"int >= {least}", int, lambda n: n >= least)


def _choice(*names: str) -> Domain:
    return Domain("one of " + ", ".join(names), str, lambda s: s in names)


def _float_list(raw: str) -> list[float]:
    return [float(p) for p in raw.split(",")] if raw.strip() else []


_POSITIVE = Domain("finite float > 0", float, lambda x: 0 < x < math.inf)
_NON_NEGATIVE = Domain("finite float >= 0", float, lambda x: 0 <= x < math.inf)
_LATERAL = Domain("nan (auto) or finite float", float, lambda x: not math.isinf(x))
_AXIAL = Domain("nan (auto) or finite float > 0", float,
                lambda x: math.isnan(x) or 0 < x < math.inf)
_UNIT = Domain("float in (0, 1)", float, lambda x: 0 < x < 1)
_STEP = Domain("float in (0, 1]", float, lambda x: 0 < x <= 1)
_METERS = Domain("float in [-1, 1]", float, lambda x: -1 <= x <= 1)
_ANGLES = Domain("non-empty list of floats in (-pi/2, pi/2)", _float_list,
                 lambda a: bool(a) and all(-math.pi / 2 < x < math.pi / 2 for x in a))
_REGION = Domain("empty, or four finite floats x0,z0,x1,z1", _float_list,
                 lambda r: not r or (len(r) == 4 and all(map(math.isfinite, r))))

_GRID_KEYS = ("bf.grid_lat_min", "bf.grid_lat_max", "bf.grid_ax_min", "bf.grid_ax_max")

#: key -> (default as string, domain, help text).
CONFIG_SCHEMA: dict[str, tuple[str, Domain, str]] = {
    "sim.num_elements": ("32", _ints(2), "transducer element count C"),
    "sim.pitch_factor": ("0.5", _POSITIVE, "element pitch in wavelengths (lambda/2 default)"),
    "sim.f0": ("5e6", _POSITIVE, "pulse center frequency [Hz]"),
    "sim.fs_factor": ("8.0", Domain("finite float > 2", float, lambda x: 2 < x < math.inf),
                      "sampling rate as a multiple of f0"),
    "sim.bandwidth": ("0.6", Domain("float in (0, 2)", float, lambda x: 0 < x < 2),
                      "pulse fractional bandwidth"),
    "sim.amplitude": ("1.0", Domain("finite float", float, math.isfinite), "pulse amplitude"),
    "sim.v": ("1540.0", _POSITIVE, "speed of sound [m/s]"),
    "sim.nt": ("0", _ints(0), "samples per trace; 0 = auto from deepest scatterer"),
    "sim.noise_std": ("0.0", _NON_NEGATIVE, "channel noise standard deviation"),
    "sim.scheme": ("pw", _choice("pw", "sa"), "transmit scheme: plane waves or SA"),
    "sim.pw_angles": ("0.0", _ANGLES, "comma-separated plane-wave angles [rad]"),
    "bf.method": ("das", _choice("das", "mv", "wiener", "cf", "imap"), "beamformer"),
    "bf.apod": ("rect", _choice("rect", "hanning", "hamming"), "apodization"),
    "bf.iters": ("2", _ints(1), "iMAP iterations"),
    "bf.sub_l": ("0", _ints(0), "MV subaperture length L <= C; 0 = C/2"),
    "bf.k": ("2", _ints(0), "MV axial half-window K"),
    "bf.eps": ("0.01", _NON_NEGATIVE, "MV diagonal loading fraction"),
    "bf.dyn_range": ("60.0", _POSITIVE, "display dynamic range [dB]"),
    "bf.compound": ("channel", _choice("channel", "mean", "mv"), "multi-event handling"),
    "bf.grid_lat_min": ("nan", _LATERAL, "grid lateral min [m]; nan = aperture edge"),
    "bf.grid_lat_max": ("nan", _LATERAL, "grid lateral max [m]; nan = aperture edge"),
    "bf.grid_ax_min": ("nan", _AXIAL, "grid axial min [m]; nan = one wavelength"),
    "bf.grid_ax_max": ("nan", _AXIAL, "grid axial max [m]; nan = recording depth"),
    "bf.grid_nx": ("0", _ints(0), "grid lateral pixel count; 0 = one per half wavelength"),
    "bf.grid_nz": ("0", Domain("0 (auto) or int >= 4", int, lambda n: n == 0 or n >= 4),
                   "grid axial pixel count (envelope detection needs 4); "
                   "0 = one per quarter wavelength"),
    "sparse.lambda": ("0.0", _NON_NEGATIVE, "absolute l1 weight; 0 = use lambda_frac"),
    "sparse.lambda_frac": ("0.015", _POSITIVE, "l1 weight as a fraction of ||A^H y||_inf"),
    "sparse.max_iters": ("5000", _ints(1), "ISTA iteration cap"),
    "sparse.tol": ("1e-8", _POSITIVE, "ISTA relative-change stopping tolerance"),
    "clutter.lambda1": ("0.0", _NON_NEGATIVE, "nuclear-norm weight; 0 = s1/sqrt(max(NM,T))"),
    "clutter.lambda2": ("0.0", _NON_NEGATIVE, "mixed-norm weight; 0 = 0.5*lambda1"),
    "clutter.mu1": ("0.5", _STEP, "RPCA tissue gradient step"),
    "clutter.mu2": ("0.5", _STEP, "RPCA blood gradient step"),
    "clutter.iters": ("500", _ints(1), "RPCA iteration cap"),
    "clutter.tol": ("1e-6", _POSITIVE, "RPCA relative-change stopping tolerance"),
    "ulm.factor": ("4", _ints(1), "super-resolution factor (HR pixels per LR pixel)"),
    "ulm.psf_sigma": ("2.0", _POSITIVE, "Gaussian PSF sigma [HR px]"),
    "ulm.lambda_frac": ("0.05", _POSITIVE, "l1 weight as a fraction of ||A^H y||_inf"),
    "ulm.threshold": ("0.10", _UNIT, "centroid detection threshold fraction"),
    "ulm.window_radius": ("1", _ints(1), "centroid merge/refine radius [px]"),
    "ulm.method": ("sparse", _choice("sparse", "centroid"), "localization method"),
    "ulm.max_iters": ("700", _ints(1), "ISTA iteration cap for localization"),
    "ulm.tol": ("1e-5", _POSITIVE, "ISTA stopping tolerance for localization"),
    "metrics.region_a": ("", _REGION, "rectangle [m] (region A)"),
    "metrics.region_b": ("", _REGION, "rectangle [m] (region B)"),
    "demo.num_scatterers": ("300", _ints(1), "speckle scatterers in the demo phantom"),
    "demo.cyst_radius": ("2e-3", _STEP, "anechoic cyst radius [m]"),
    "demo.cyst_cx": ("0.0", _METERS, "cyst lateral center [m]"),
    "demo.cyst_cz": ("0.02", _METERS, "cyst axial center [m]"),
}


def _parse(key: str, raw: str):
    """``raw`` as a value in ``key``'s domain; ConfigError names the key."""
    domain = CONFIG_SCHEMA[key][1]
    try:
        value = domain.parse(raw)
    except ValueError:
        pass
    else:
        if raw.isascii() and domain.holds(value):   # the dump is ASCII
            return value
    raise ConfigError(f"{key}: expected {domain.text}, got {raw!r}")


class PipelineConfig:
    """Flat, namespaced key = value map over ``CONFIG_SCHEMA``.

    ``values`` keeps every raw string as given, so the dump is a ``--config``
    file that reproduces the run; :meth:`parse` checks each key against its
    domain once, and ``cfg[key]`` then returns the typed value.
    """

    def __init__(self):
        self.values = {k: default for k, (default, _, _) in CONFIG_SCHEMA.items()}
        self.typed: dict[str, Any] = {}

    def set(self, key: str, value: str) -> None:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        self.values[key] = str(value)

    def load_file(self, path) -> None:
        # a non-ASCII byte decodes to U+FFFD, which no key or domain accepts
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in body.split("=", 1))
                self.set(key, value)

    def parse(self) -> None:
        self.typed = {key: _parse(key, raw) for key, raw in self.values.items()}

    def __getitem__(self, key: str):
        return self.typed[key]

    def dump(self, path, seed: int) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# resolved usproc configuration\n")
            fh.write(f"# seed = {seed}\n")
            for key in sorted(self.values):
                fh.write(f"{key} = {self.values[key]}\n")


def _resolve_config(args, fill=None) -> PipelineConfig:
    """Defaults, then ``--config``, then ``--set`` pairs and flags; every key
    parsed in its domain and the cross-key rules checked before any input is
    read.  ``fill`` sets keys still at nan (auto) to the caller's values."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg.load_file(args.config)
    for key, value in getattr(args, "set", None) or []:
        cfg.set(key, value)
    for key, value in vars(args).items():   # a flag's dest is its key
        if key in CONFIG_SCHEMA and value is not None:
            cfg.set(key, value)
    cfg.parse()
    for key, value in (fill or {}).items():
        if math.isnan(cfg[key]):
            cfg.values[key], cfg.typed[key] = repr(value), value
    _check_relations(cfg)
    return cfg


def _check_size(what: str, *dims) -> None:
    """Reject an array of prod(dims) elements above MAX_ELEMENTS."""
    if not math.prod(dims) <= MAX_ELEMENTS:
        raise ConfigError(f"{what} exceeds {MAX_ELEMENTS} (2**28) elements")


def _check_aperture(c: int, pitch_factor: float, v: float, f0: float) -> None:
    """The pitch must be a normal float, so element positions strictly
    increase, and the half aperture must square finitely."""
    pitch = pitch_factor * v / f0
    half = pitch * (c - 1) / 2.0
    if not (sys.float_info.min <= pitch and half * half < math.inf):
        raise ConfigError(
            f"sim.pitch_factor, sim.v, sim.f0 and sim.num_elements give a "
            f"pitch of {pitch:.3g} m and a half aperture of {half:.3g} m")


def _check_relations(cfg: PipelineConfig) -> None:
    """The rules that tie keys together, each checked once, by name."""
    c, f0 = cfg["sim.num_elements"], cfg["sim.f0"]
    events = c if cfg["sim.scheme"] == "sa" else len(cfg["sim.pw_angles"])
    _check_size("simulated cube E x C x Nt (sim.scheme, sim.pw_angles, "
                "sim.num_elements, sim.nt)", events, c, max(cfg["sim.nt"], 1))
    _check_aperture(c, cfg["sim.pitch_factor"], cfg["sim.v"], f0)
    fs = cfg["sim.fs_factor"] * f0
    if not 2.0 * f0 < fs < math.inf:
        raise ConfigError(f"sim.fs_factor * sim.f0 = {fs:.3g} Hz must be "
                          f"finite and exceed 2 * sim.f0")
    bw = cfg["sim.bandwidth"]
    _check_size("pulse envelope sigma_t * fs (sim.f0, sim.bandwidth, "
                "sim.fs_factor)",
                PulseModel(f0, bw).sigma_t * fs if f0 * bw > 0 else math.inf)
    for lo, hi in (_GRID_KEYS[:2], _GRID_KEYS[2:]):
        if cfg[lo] >= cfg[hi]:   # False while either is nan (auto)
            raise ConfigError(f"{lo} = {cfg[lo]} must be below {hi} = {cfg[hi]}")
    try:
        side = 2 * ulm.psf_radius(cfg["ulm.psf_sigma"]) + 1
    except OverflowError:   # the radius overflowed to inf
        side = math.inf
    _check_size("ULM PSF (ulm.psf_sigma)", side, side)


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _array_from(cfg: PipelineConfig, c: int, f0: float, v: float,
                fs: float) -> TransducerArray:
    """A linear array of ``c`` elements, ``sim.pitch_factor`` wavelengths apart."""
    _check_aperture(c, cfg["sim.pitch_factor"], v, f0)
    return TransducerArray.linear(c, cfg["sim.pitch_factor"] * v / f0, f0, fs)


def _events_from(cfg: PipelineConfig, array: TransducerArray):
    if cfg["sim.scheme"] == "sa":
        return [TransmitEvent.synthetic_aperture(i, array)
                for i in range(array.num_elements)]
    return [TransmitEvent.plane_wave(a) for a in cfg["sim.pw_angles"]]


def _auto_count(span: float, step: float, least: int) -> int:
    # a span past the cap is clamped to it, and the size check reports it
    return max(round(min(span / step, MAX_ELEMENTS)) + 1, least)


def _grid_from(cfg: PipelineConfig, array: TransducerArray, nt: int,
               v: float, images: int = 0, mv: bool = False) -> ImagingGrid:
    """The configured grid, nan bounds and 0 counts filled from the array and
    the recording depth, after what is built on it passes the size cap: a
    C x Rx x Rz focused tensor, plus ``images`` Rx x Rz images when
    compounding, and MV compounding's padded E x E covariances.  With ``mv``
    (MV or Wiener beamforming) ``bf.sub_l`` must not exceed C and MV's padded
    L x L covariances pass the cap too.  ``beamform`` and ``demo`` call this
    before they read or simulate anything."""
    c = array.num_elements
    if mv and cfg["bf.sub_l"] > c:
        raise ConfigError(f"bf.sub_l = {cfg['bf.sub_l']} exceeds the array's "
                          f"C = {c} elements")
    lam = v / array.center_frequency
    half_aperture = (c - 1) * array.pitch / 2.0
    auto = {"bf.grid_lat_min": -half_aperture, "bf.grid_lat_max": half_aperture,
            "bf.grid_ax_min": lam,
            "bf.grid_ax_max": (nt - 1) / array.sampling_frequency * v / 2.0}
    lat_min, lat_max, ax_min, ax_max = (
        auto[key] if math.isnan(cfg[key]) else cfg[key] for key in auto)
    nx = cfg["bf.grid_nx"] or _auto_count(lat_max - lat_min, lam / 2.0, 2)
    nz = cfg["bf.grid_nz"] or _auto_count(ax_max - ax_min, lam / 4.0, 4)
    what = ("focused tensor C x Rx x Rz plus E x Rx x Rz images (bf.compound, "
            if images else "focused tensor C x Rx x Rz (") + "bf.grid_nx, bf.grid_nz)"
    _check_size(what, c + images, nx, nz)
    # each column's covariances are padded by K on both ends of the axis
    if mv:
        sub_l = _sub_l(cfg, c)
        _check_size("MV covariance window (Rz + 2K) x L x L (bf.k, bf.sub_l)",
                    nz + 2 * cfg["bf.k"], sub_l, sub_l)
    if images and cfg["bf.compound"] == "mv":
        _check_size("MV compounding window (Rz + 2K) x E x E (bf.k, bf.compound)",
                    nz + 2 * cfg["bf.k"], images, images)
    return _regular_grid(lat_min, lat_max, nx, ax_min, ax_max, nz)


def _regular_grid(lat_min, lat_max, nx, ax_min, ax_max, nz) -> ImagingGrid:
    """``ImagingGrid.regular``, with coordinates that do not strictly
    increase in front of the array reported as a config error.  Bounds
    whose difference overflows give inf and nan coordinates, which the grid
    rejects, so numpy's warnings about them are silenced."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return ImagingGrid.regular(lat_min, lat_max, nx, ax_min, ax_max, nz)
    except ValueError:
        raise ConfigError(f"bf.grid_*: {nx} x {nz} pixels over [{lat_min:.3g}, {lat_max:.3g}]"
                          f" x [{ax_min:.3g}, {ax_max:.3g}] m are not strictly increasing"
                          f" in front of the array") from None


def _sub_l(cfg: PipelineConfig, c: int) -> int:
    """The MV subaperture length L: ``bf.sub_l``, or MV's default when it is 0."""
    return cfg["bf.sub_l"] or bf.default_covariance_config(c).subaperture_length


_APOD = {"rect": RECTANGULAR, "hanning": HANNING, "hamming": HAMMING}


def _beamform_image(cfg: PipelineConfig, focused, method: str):
    c = focused.num_channels
    if method in ("mv", "wiener"):
        cov = bf.CovarianceConfig(_sub_l(cfg, c), cfg["bf.k"], cfg["bf.eps"])
        return bf.mv(focused, cov) if method == "mv" else bf.wiener(focused, cov)
    if method == "imap":
        return bf.imap(focused, cfg["bf.iters"])
    apod = ApodizationWindow(_APOD[cfg["bf.apod"]], c)
    return bf.das(focused, apod) if method == "das" else bf.cf_weighted_das(focused, apod)


def _write_image_outputs(prefix: Path, image, dyn_range: float):
    """Write rf as UIM1 and its log-compressed envelope as PGM; return the envelope."""
    env = tof.detect_envelope(image).envelope
    uio.write_uim1(str(prefix) + ".uim1", np.real(image.rf))
    uio.write_pgm(str(prefix) + ".pgm", tof.log_compress(env, dyn_range), dyn_range)
    return env


_METRICS_HEADER = ("metric", "name", "value")


def _write_csv(path, header, rows) -> None:
    """CRLF lines of ``header`` then ``rows``: a str or int cell as it is,
    any other number as the repr of its float."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for row in (header, *rows):
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else repr(float(c))
                              for c in row) + "\r\n")


def _auto_nt(array, events, field, v, pulse) -> int:
    elem = array.element_positions
    sc = field.scatterers
    if sc.shape[0] == 0:
        return 256
    with np.errstate(over="ignore"):   # an overflow is reported below
        rx = np.sqrt((elem[:, 0:1] - sc[None, :, 0]) ** 2
                     + (elem[:, 1:2] - sc[None, :, 1]) ** 2).max(axis=0)
        tau_max = 0.0
        for ev in events:
            tx = transmit_distances(ev, sc[:, 0], sc[:, 1])
            tau_max = max(tau_max, float(np.max(tx + rx)) / v)
    tail = 4.0 * pulse.sigma_t
    window = (tau_max + tail) * array.sampling_frequency
    # the cube holds at most window + 3 samples per trace; nan or inf fails
    _check_size("simulated cube E x C x Nt, Nt auto from the deepest scatterer "
                "(sim.nt = 0; sim.fs_factor, sim.v and the field's extent)",
                len(events), array.num_elements, window + 3)
    return int(math.ceil(window)) + 2


def _sim_array(cfg: PipelineConfig) -> TransducerArray:
    """The array that ``simulate`` and ``demo`` record with."""
    f0 = cfg["sim.f0"]
    return _array_from(cfg, cfg["sim.num_elements"], f0, cfg["sim.v"],
                       cfg["sim.fs_factor"] * f0)


def _simulate_from(cfg: PipelineConfig, array: TransducerArray,
                   field: ScattererField, seed: int):
    """Simulate ``field`` with ``array`` and the configured transmits, pulse, noise."""
    v = cfg["sim.v"]
    events = _events_from(cfg, array)
    pulse = PulseModel(cfg["sim.f0"], cfg["sim.bandwidth"], cfg["sim.amplitude"])
    nt = cfg["sim.nt"] or _auto_nt(array, events, field, v, pulse)
    cube = simulate(array, events, field, pulse, v, nt, cfg["sim.noise_std"], seed)
    return cube, pulse


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    field = uio.read_scatterer_field(args.field)
    cube, pulse = _simulate_from(cfg, _sim_array(cfg), field, args.seed)
    uio.write_urf1(args.out, cube, pulse.f0)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out} (E={cube.num_events} C={cube.num_channels} "
          f"Nt={cube.num_samples})")
    return 0


def _open_cube(args, cfg: PipelineConfig):
    """(array, events, Nt, v) from the URF1 header: the format stores no
    events, so the scheme comes from the config (typically ``simulate``'s
    sidecar) and the array from the header plus ``sim.pitch_factor``."""
    e_count, c_count, nt, fs, v, f0 = uio.read_urf1_header(args.infile)
    array = _array_from(cfg, c_count, f0, v, fs)
    events = _events_from(cfg, array)
    if len(events) != e_count:
        raise ConfigError(
            f"config describes {len(events)} events but file has {e_count}")
    return array, events, nt, v


def _cmd_beamform(args) -> int:
    cfg = _resolve_config(args)
    array, events, nt, v = _open_cube(args, cfg)
    method, mode = cfg["bf.method"], cfg["bf.compound"]
    images = len(events) if mode != "channel" and len(events) > 1 else 0
    grid = _grid_from(cfg, array, nt, v, images, mv=method in ("mv", "wiener"))
    cube, _ = uio.read_urf1(args.infile, events)
    delays = tof.compute_delays(array, cube.events, grid, v)
    if images:
        # one event's focused tensor at a time, each beamformed by bf.method
        image = bf.compound(
            [_beamform_image(cfg, tof.focus(cube, delays, grid, e), method)
             for e in range(images)],
            mode, bf.CovarianceConfig(images, cfg["bf.k"], cfg["bf.eps"]))
    else:
        image = _beamform_image(cfg, tof.focus(cube, delays, grid), method)
    _write_image_outputs(Path(args.out), image, cfg["bf.dyn_range"])
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 and {args.out}.pgm ({method})")
    return 0


def _read_bins(path, n: int) -> np.ndarray:
    """The DFT bins listed in ``path``: unique integers in [0, n)."""
    # a non-ASCII byte decodes to U+FFFD, which no integer accepts
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        tokens = [p for line in fh for p in line.split("#", 1)[0].split()]
    try:
        bins = np.asarray([int(p) for p in tokens], dtype=np.int64)
        ok = np.unique(bins).size == bins.size and np.all((0 <= bins) & (bins < n))
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise FileFormatError(f"{path}: bins must be unique integers in [0, {n})")
    return bins


def _sparse_lambda(cfg, adjoint_y) -> float:
    """``sparse.lambda``, or when that is 0 ``sparse.lambda_frac`` times
    ||A^H y||_inf, with ``adjoint_y()`` giving A^H y."""
    if cfg["sparse.lambda"] > 0:
        return cfg["sparse.lambda"]
    return cfg["sparse.lambda_frac"] * float(np.max(np.abs(adjoint_y())))


def _cmd_recover(args) -> int:
    cfg = _resolve_config(args)
    array, events, _, _ = _open_cube(args, cfg)
    if not (0 <= args.event < len(events) and 0 <= args.channel < array.num_elements):
        raise ConfigError(f"--event/--channel out of range for cube "
                          f"(E={len(events)}, C={array.num_elements})")
    cube, _ = uio.read_urf1(args.infile, events)
    trace = cube.samples[args.event, args.channel]
    bins = _read_bins(args.bins, trace.size)
    model = sp.ScanlineModel(np.ones(bins.size, dtype=np.complex128), bins,
                             trace.size)
    y_tilde = model.forward(trace)
    lam = _sparse_lambda(cfg, lambda: model.adjoint(y_tilde))
    x = sp.recover_scanline(model, y_tilde, lam, max_iters=cfg["sparse.max_iters"],
                            tol=cfg["sparse.tol"])
    uio.write_uim1(args.out + ".uim1", x[:, None])
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 (N={x.size}, M={bins.size}, lambda={lam:g})")
    return 0


def _cmd_deconvolve(args) -> int:
    cfg = _resolve_config(args)
    image = uio.read_uim1(args.infile)
    psf = uio.read_uim1(args.psf)
    lam = _sparse_lambda(cfg, lambda: sp.Conv2Same(image.shape, psf).adjoint(image))
    out = sp.deconvolve(image, psf, lam, max_iters=cfg["sparse.max_iters"],
                        tol=cfg["sparse.tol"])
    uio.write_uim1(args.out + ".uim1", out)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 (lambda={lam:g})")
    return 0


def _cmd_clutter(args) -> int:
    cfg = _resolve_config(args)
    frames = uio.read_uim1_seq(args.infile)
    y = cl.build_casorati(frames)
    lam1 = cfg["clutter.lambda1"] or cl.default_lambda1(y)
    lam2 = cfg["clutter.lambda2"] or 0.5 * lam1
    if args.method == "svt":
        tissue = cl.svt(y, lam1)
        blood = y - tissue
        iters = 1
    else:
        tissue, blood, iters = cl.rpca(
            y, lam1, lam2, cfg["clutter.mu1"], cfg["clutter.mu2"],
            cfg["clutter.iters"], cfg["clutter.tol"])
    shape = frames.shape[1:]
    uio.write_uim1_seq(args.out + "_tissue.uim1", cl.unbuild_casorati(tissue, shape))
    uio.write_uim1_seq(args.out + "_blood.uim1", cl.unbuild_casorati(blood, shape))
    power = cl.power_doppler(blood, shape)
    uio.write_pgm_linear(args.out + "_doppler.pgm", power)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}_tissue/_blood/.uim1 and _doppler.pgm "
          f"({args.method}, {iters} iterations)")
    return 0


def _cmd_ulm(args) -> int:
    cfg = _resolve_config(args)
    method, factor = cfg["ulm.method"], cfg["ulm.factor"]
    frames = uio.read_uim1_seq(args.frames)
    hr_shape = (frames.shape[1] * factor, frames.shape[2] * factor)
    _check_size("ULM HR grid (ulm.factor)", *hr_shape)
    thr, radius = cfg["ulm.threshold"], cfg["ulm.window_radius"]
    sets = []
    if method == "centroid":
        for frame in frames:
            det = ulm.detect_centroids(frame, thr, radius)
            det[:, :2] = det[:, :2] * factor + (factor - 1) / 2.0
            sets.append(det)
    else:
        _check_size("ULM per-axis operators' build, 4 n x n temporaries, "
                    "n = max(HR grid) (ulm.factor)", 4, max(hr_shape), max(hr_shape))
        model = ulm.LocalizationModel(frames.shape[1:],
                                      ulm.gaussian_psf(cfg["ulm.psf_sigma"]), factor)
        # each block of frames is solved as one batch
        for block in row_blocks(len(frames), hr_shape[0] * hr_shape[1]):
            stack = frames[block]
            lam = cfg["ulm.lambda_frac"] * ulm.max_correlation(stack, model)
            hr = ulm.localize_sparse(stack, model, lam, max_iters=cfg["ulm.max_iters"],
                                     tol=cfg["ulm.tol"])
            sets += [ulm.detect_centroids(h, thr, radius) for h in hr]
    density = ulm.accumulate(sets, hr_shape)
    uio.write_uim1(args.out + "_density.uim1", density)
    uio.write_pgm_linear(args.out + "_density.pgm", density)
    _write_csv(args.out + "_detections.csv", ("frame", "x", "z", "intensity"),
               ((t, *row) for t, det in enumerate(sets) for row in det))
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}_density.uim1/.pgm and _detections.csv "
          f"({sum(len(s) for s in sets)} detections)")
    return 0


def _cmd_metrics(args) -> int:
    cfg = _resolve_config(args)
    for key in _GRID_KEYS:
        if math.isnan(cfg[key]):
            raise ConfigError(f"metrics needs an explicit grid ({key} unset)")
    lat_min, lat_max, ax_min, ax_max = (cfg[key] for key in _GRID_KEYS)
    image = uio.read_uim1(args.infile)
    grid = _regular_grid(lat_min, lat_max, image.shape[0],
                         ax_min, ax_max, image.shape[1])
    env = tof.envelope(image, axis=-1)
    rows = []
    ra, rb = cfg["metrics.region_a"], cfg["metrics.region_b"]
    if ra and rb:
        region_a, region_b = mx.RegionSpec(*ra), mx.RegionSpec(*rb)
        rows.append(("contrast_db", "a_vs_b",
                     mx.contrast_db(env, grid, region_a, region_b)))
        rows.append(("cnr", "a_vs_b", mx.cnr(env, grid, region_a, region_b)))
    if args.ref:
        rows.append(("nmse", "vs_ref", mx.nmse(image, uio.read_uim1(args.ref))))
    if not rows:
        raise ConfigError("metrics: need regions (metrics.region_a/b) or --ref")
    _write_csv(args.out, _METRICS_HEADER, rows)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out} ({len(rows)} metrics)")
    return 0


#: The demo phantom draws scatterers uniformly from this (x, z) box [m] ...
_DEMO_BOX = ((-6e-3, 6e-3), (14e-3, 26e-3))
#: ... and images this grid unless the config sets one.
_DEMO_GRID = dict(zip(_GRID_KEYS, (-5e-3, 5e-3, 15e-3, 25e-3)))


def _demo_phantom(cfg: PipelineConfig, seed: int) -> ScattererField:
    """Speckle drawn from ``_DEMO_BOX`` outside the cyst, by rejection: a
    cyst over the whole box would never let it end, so it is a config error."""
    (x0, x1), (z0, z1) = _DEMO_BOX
    cx, cz, radius = cfg["demo.cyst_cx"], cfg["demo.cyst_cz"], cfg["demo.cyst_radius"]
    if all((x - cx) ** 2 + (z - cz) ** 2 <= radius ** 2 for x in (x0, x1) for z in (z0, z1)):
        raise ConfigError("demo.cyst_radius, demo.cyst_cx and demo.cyst_cz: "
                          "the cyst covers the whole phantom box")
    _check_size("demo phantom (demo.num_scatterers)", cfg["demo.num_scatterers"], 3)
    rng = np.random.Generator(np.random.Philox(
        key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | 0xDE30))
    rows = np.empty((cfg["demo.num_scatterers"], 3))
    for row in rows:
        x, z = rng.uniform(x0, x1), rng.uniform(z0, z1)
        while (x - cx) ** 2 + (z - cz) ** 2 <= radius ** 2:
            x, z = rng.uniform(x0, x1), rng.uniform(z0, z1)
        row[:] = x, z, rng.standard_normal()
    return ScattererField(rows)


def _cmd_demo(args) -> int:
    cfg = _resolve_config(args, fill=_DEMO_GRID)
    array, v = _sim_array(cfg), cfg["sim.v"]
    # ``fill`` set every bound, so no depth is needed; the demo runs MV
    grid = _grid_from(cfg, array, 0, v, mv=True)
    cx, cz, radius = cfg["demo.cyst_cx"], cfg["demo.cyst_cz"], cfg["demo.cyst_radius"]
    half = radius / math.sqrt(2.0) * 0.9
    cyst = mx.RegionSpec(cx - half, cz - half, cx + half, cz + half)
    bg = mx.RegionSpec(cx + radius + 1e-3, cz - half,
                       cx + radius + 1e-3 + 2 * half, cz + half)
    if not (np.any(cyst.mask(grid)) and np.any(bg.mask(grid))):
        raise ConfigError("demo.cyst_radius, demo.cyst_cx and demo.cyst_cz: the cyst "
                          "or background rectangle selects no pixel of the grid")
    field = _demo_phantom(cfg, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    uio.write_scatterer_field(outdir / "phantom.txt", field)
    cube, pulse = _simulate_from(cfg, array, field, args.seed)
    uio.write_urf1(outdir / "cube.urf", cube, pulse.f0)
    delays = tof.compute_delays(array, cube.events, grid, v)
    focused = tof.focus(cube, delays, grid)
    dyn = cfg["bf.dyn_range"]
    rows = []
    for method in ("das", "mv", "cf", "imap"):
        image = _beamform_image(cfg, focused, method)
        env = _write_image_outputs(outdir / method, image, dyn)
        rows.append(("contrast_db", method, mx.contrast_db(env, grid, bg, cyst)))
        rows.append(("cnr", method, mx.cnr(env, grid, bg, cyst)))
    _write_csv(outdir / "metrics.csv", _METRICS_HEADER, rows)
    cfg.dump(outdir / "demo.config.txt", args.seed)
    print(f"wrote demo outputs to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, naming the flag
        raise _UsageError(message)


#: Per subcommand, its config-key flags: each is shorthand for ``--set KEY``.
FLAGS: dict[str, dict[str, str]] = {
    "simulate": {"--noise-std": "sim.noise_std", "--pw-angles": "sim.pw_angles",
                 "--num-elements": "sim.num_elements", "--nt": "sim.nt"},
    "beamform": {"--method": "bf.method", "--apod": "bf.apod", "--iters": "bf.iters",
                 "--sub-L": "bf.sub_l", "--eps": "bf.eps", "--dyn-range": "bf.dyn_range",
                 "--pw-angles": "sim.pw_angles"},
    "recover": {"--lambda": "sparse.lambda"},
    "deconvolve": {"--lambda": "sparse.lambda"},
    "clutter": {"--lambda1": "clutter.lambda1", "--lambda2": "clutter.lambda2",
                "--iters": "clutter.iters"},
    "ulm": {"--lambda-frac": "ulm.lambda_frac", "--factor": "ulm.factor",
            "--method": "ulm.method"},
    "metrics": {"--region-a": "metrics.region_a", "--region-b": "metrics.region_b"},
    "demo": {},
}


def _add_common(sp_parser, flags: dict[str, str]):
    for flag, key in flags.items():
        sp_parser.add_argument(flag, dest=key, metavar="VALUE",
                               help=f"{CONFIG_SCHEMA[key][2]} ({key})")
    sp_parser.add_argument("--seed", type=int, default=0,
                           help="seed for all randomness")
    sp_parser.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; has no effect "
                           "(every command runs in one thread)")
    sp_parser.add_argument("--config", help="key = value config file")
    sp_parser.add_argument("--set", nargs=2, action="append",
                           metavar=("KEY", "VALUE"),
                           help="override one config key")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usproc",
                     description="model-based ultrasound signal processing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize an RF data cube")
    p.add_argument("--field", required=True, help="scatterer text file")
    p.add_argument("--out", required=True, help="output URF1 path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("beamform", help="reconstruct an image from URF1")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_beamform)

    p = sub.add_parser("recover", help="sub-Nyquist scanline recovery")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", required=True, help="text file of DFT bin indices")
    p.add_argument("--event", type=int, default=0)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("deconvolve", help="l1 deblurring of a UIM1 image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--psf", required=True, help="PSF kernel as UIM1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_deconvolve)

    p = sub.add_parser("clutter", help="tissue/flow separation of a sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["svt", "rpca"], default="rpca")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clutter)

    p = sub.add_parser("ulm", help="localization microscopy over a sequence")
    p.add_argument("--frames", required=True, help="multi-frame UIM1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ulm)

    p = sub.add_parser("metrics", help="contrast/CNR/NMSE of a UIM1 image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ref", help="reference UIM1 for NMSE")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("demo", help="cyst phantom end-to-end pipeline")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_demo)

    for name, p in sub.choices.items():
        _add_common(p, FLAGS[name])
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (UsprocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
