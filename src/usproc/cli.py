"""Command-line front end wiring the modules into reproducible pipelines.

Subcommands: simulate, beamform, recover, deconvolve, clutter, ulm,
metrics, demo.  Every run resolves a flat ``key = value`` configuration
(defaults, then ``--config`` file, then flags), logs it to a sidecar
``.config.txt`` next to the primary output, and draws all randomness from
the single ``--seed`` flag, so outputs are byte-reproducible.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

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
)
from .errors import ConfigError, UsprocError
from .simulator import PulseModel, simulate, transmit_distances

# ---------------------------------------------------------------------------
# Configuration

#: key -> (default as string, help text); every key has a documented default.
CONFIG_DEFAULTS: dict[str, tuple[str, str]] = {
    "sim.num_elements": ("32", "transducer element count C"),
    "sim.pitch_factor": ("0.5", "element pitch in wavelengths (lambda/2 default)"),
    "sim.f0": ("5e6", "pulse center frequency [Hz]"),
    "sim.fs_factor": ("8.0", "sampling rate as a multiple of f0"),
    "sim.bandwidth": ("0.6", "pulse fractional bandwidth"),
    "sim.amplitude": ("1.0", "pulse amplitude"),
    "sim.v": ("1540.0", "speed of sound [m/s]"),
    "sim.nt": ("0", "samples per trace; 0 = auto from deepest scatterer"),
    "sim.noise_std": ("0.0", "channel noise standard deviation"),
    "sim.scheme": ("pw", "transmit scheme: pw (plane waves) or sa"),
    "sim.pw_angles": ("0.0", "comma-separated plane-wave angles [rad]"),
    "bf.method": ("das", "beamformer: das, mv, wiener, cf, imap"),
    "bf.apod": ("rect", "apodization: rect, hanning, hamming"),
    "bf.iters": ("2", "iMAP iterations"),
    "bf.sub_l": ("0", "MV subaperture length L; 0 = C/2"),
    "bf.k": ("2", "MV axial half-window K"),
    "bf.eps": ("0.01", "MV diagonal loading fraction"),
    "bf.dyn_range": ("60.0", "display dynamic range [dB]"),
    "bf.compound": ("channel", "multi-event handling: channel, mean, mv"),
    "bf.grid_lat_min": ("nan", "grid lateral min [m]; nan = aperture edge"),
    "bf.grid_lat_max": ("nan", "grid lateral max [m]; nan = aperture edge"),
    "bf.grid_ax_min": ("nan", "grid axial min [m]; nan = one wavelength"),
    "bf.grid_ax_max": ("nan", "grid axial max [m]; nan = recording depth"),
    "bf.grid_nx": ("0", "grid lateral pixel count; 0 = one per half wavelength"),
    "bf.grid_nz": ("0", "grid axial pixel count; 0 = one per quarter wavelength"),
    "sparse.lambda": ("0.0", "absolute l1 weight; 0 = use lambda_frac"),
    "sparse.lambda_frac": ("0.015", "l1 weight as a fraction of ||A^H y||_inf"),
    "sparse.max_iters": ("5000", "ISTA iteration cap"),
    "sparse.tol": ("1e-8", "ISTA relative-change stopping tolerance"),
    "clutter.lambda1": ("0.0", "nuclear-norm weight; 0 = s1/sqrt(max(NM,T))"),
    "clutter.lambda2": ("0.0", "mixed-norm weight; 0 = 0.5*lambda1"),
    "clutter.mu1": ("0.5", "RPCA tissue gradient step"),
    "clutter.mu2": ("0.5", "RPCA blood gradient step"),
    "clutter.iters": ("500", "RPCA iteration cap"),
    "clutter.tol": ("1e-6", "RPCA relative-change stopping tolerance"),
    "ulm.factor": ("4", "super-resolution factor (HR pixels per LR pixel)"),
    "ulm.psf_sigma": ("2.0", "Gaussian PSF sigma [HR px]"),
    "ulm.lambda_frac": ("0.05", "l1 weight as a fraction of ||A^H y||_inf"),
    "ulm.threshold": ("0.10", "centroid detection threshold fraction"),
    "ulm.window_radius": ("1", "centroid merge/refine radius [px]"),
    "ulm.method": ("sparse", "localization method: sparse or centroid"),
    "ulm.max_iters": ("700", "ISTA iteration cap for localization"),
    "ulm.tol": ("1e-5", "ISTA stopping tolerance for localization"),
    "metrics.region_a": ("", "rectangle x0,z0,x1,z1 [m] (region A)"),
    "metrics.region_b": ("", "rectangle x0,z0,x1,z1 [m] (region B)"),
    "demo.num_scatterers": ("300", "speckle scatterers in the demo phantom"),
    "demo.cyst_radius": ("2e-3", "anechoic cyst radius [m]"),
    "demo.cyst_cx": ("0.0", "cyst lateral center [m]"),
    "demo.cyst_cz": ("0.02", "cyst axial center [m]"),
}


class PipelineConfig:
    """Flat, namespaced key=value map with documented defaults."""

    def __init__(self):
        self.values = {k: d for k, (d, _) in CONFIG_DEFAULTS.items()}

    def set(self, key: str, value: str) -> None:
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        self.values[key] = str(value)

    def load_file(self, path) -> None:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in body.split("=", 1))
                self.set(key, value)

    def get_str(self, key: str) -> str:
        return self.values[key]

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from None

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from None

    def get_floats(self, key: str) -> list[float]:
        raw = self.values[key].strip()
        if not raw:
            return []
        try:
            return [float(p) for p in raw.split(",")]
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from None

    def dump(self, path, seed: int) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# resolved usproc configuration\n")
            fh.write(f"# seed = {seed}\n")
            for key in sorted(self.values):
                fh.write(f"{key} = {self.values[key]}\n")


def _resolve_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg.load_file(args.config)
    for key, value in getattr(args, "set", None) or []:
        cfg.set(key, value)
    for flag, key in getattr(args, "_flag_map", {}).items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg.set(key, str(value))
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: PipelineConfig) -> None:
    """Reject values that would otherwise fail as data errors mid-run."""
    c = cfg.get_int("sim.num_elements")
    if c < 2:
        raise ConfigError(f"sim.num_elements must be >= 2, got {c}")
    nz = cfg.get_int("bf.grid_nz")
    if 0 < nz < 4:   # envelope detection needs 4 axial samples
        raise ConfigError(f"bf.grid_nz must be 0 (auto) or >= 4, got {nz}")


# ---------------------------------------------------------------------------
# Shared pipeline pieces


@contextmanager
def _configured(what: str):
    """Report a rejection of configured values while building ``what`` as a
    ConfigError (exit 1) rather than letting the raw exception escape."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _array_from(cfg: PipelineConfig, num_elements: int | None = None,
                f0: float | None = None, v: float | None = None,
                fs: float | None = None) -> TransducerArray:
    c = num_elements if num_elements is not None else cfg.get_int("sim.num_elements")
    f0 = f0 if f0 is not None else cfg.get_float("sim.f0")
    v = v if v is not None else cfg.get_float("sim.v")
    fs = fs if fs is not None else cfg.get_float("sim.fs_factor") * f0
    pitch_factor = cfg.get_float("sim.pitch_factor")
    with _configured("transducer array (sim.f0, sim.v, sim.pitch_factor, "
                     "sim.fs_factor)"):
        return TransducerArray.linear(c, pitch_factor * v / f0, f0, fs)


def _events_from(cfg: PipelineConfig, array: TransducerArray):
    scheme = cfg.get_str("sim.scheme")
    if scheme == "pw":
        angles = cfg.get_floats("sim.pw_angles")
        if not angles:
            raise ConfigError("sim.pw_angles must list at least one angle")
        with _configured("sim.pw_angles"):
            return [TransmitEvent.plane_wave(a) for a in angles]
    if scheme == "sa":
        return [TransmitEvent.synthetic_aperture(i, array)
                for i in range(array.num_elements)]
    raise ConfigError(f"sim.scheme must be 'pw' or 'sa', got '{scheme}'")


def _grid_from(cfg: PipelineConfig, array: TransducerArray, nt: int,
               v: float) -> ImagingGrid:
    lam = v / array.center_frequency
    half_aperture = (array.num_elements - 1) * array.pitch / 2.0
    lat_min = cfg.get_float("bf.grid_lat_min")
    lat_max = cfg.get_float("bf.grid_lat_max")
    ax_min = cfg.get_float("bf.grid_ax_min")
    ax_max = cfg.get_float("bf.grid_ax_max")
    if math.isnan(lat_min):
        lat_min = -half_aperture
    if math.isnan(lat_max):
        lat_max = half_aperture
    if math.isnan(ax_min):
        ax_min = lam
    if math.isnan(ax_max):
        ax_max = (nt - 1) / array.sampling_frequency * v / 2.0
    nx = cfg.get_int("bf.grid_nx")
    nz = cfg.get_int("bf.grid_nz")
    with _configured("imaging grid (bf.grid_*)"):
        if nx <= 0:
            nx = max(int(round((lat_max - lat_min) / (lam / 2.0))) + 1, 2)
        if nz <= 0:
            nz = max(int(round((ax_max - ax_min) / (lam / 4.0))) + 1, 4)
        return ImagingGrid.regular(lat_min, lat_max, nx, ax_min, ax_max, nz)


_APOD = {"rect": RECTANGULAR, "hanning": HANNING, "hamming": HAMMING}


def _beamform_image(cfg: PipelineConfig, focused, method: str):
    c = focused.num_channels
    apod = ApodizationWindow(_APOD[cfg.get_str("bf.apod")], c)
    sub_l = cfg.get_int("bf.sub_l") or max(c // 2, 1)
    cov = bf.CovarianceConfig(sub_l, cfg.get_int("bf.k"), cfg.get_float("bf.eps"))
    if method == "das":
        return bf.das(focused, apod)
    if method == "mv":
        return bf.mv(focused, cov)
    if method == "wiener":
        return bf.wiener(focused, cov)
    if method == "cf":
        return bf.cf_weighted_das(focused, apod)
    if method == "imap":
        return bf.imap(focused, cfg.get_int("bf.iters"))
    raise ConfigError(f"bf.method must be one of das/mv/wiener/cf/imap, got '{method}'")


def _write_image_outputs(prefix: Path, image, dyn_range: float) -> None:
    viewed = tof.log_view(image, dyn_range)
    uio.write_uim1(str(prefix) + ".uim1", np.real(image.rf))
    uio.write_pgm(str(prefix) + ".pgm", viewed.log_db, dyn_range)


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("metric,name,value\r\n")
        for metric, name, value in rows:
            fh.write(f"{metric},{name},{float(value)!r}\r\n")


def _auto_nt(array, events, field, v, pulse) -> int:
    elem = array.element_positions
    sc = field.scatterers
    if sc.shape[0] == 0:
        return 256
    rx = np.sqrt((elem[:, 0:1] - sc[None, :, 0]) ** 2
                 + (elem[:, 1:2] - sc[None, :, 1]) ** 2).max(axis=0)
    tau_max = 0.0
    for ev in events:
        tx = transmit_distances(ev, sc[:, 0], sc[:, 1])
        tau_max = max(tau_max, float(np.max(tx + rx)) / v)
    tail = 4.0 * pulse.sigma_t
    return int(math.ceil((tau_max + tail) * array.sampling_frequency)) + 2


def _simulate_from(cfg: PipelineConfig, field: ScattererField, seed: int):
    """Simulate ``field`` with the configured array, transmits, pulse, noise."""
    array = _array_from(cfg)
    events = _events_from(cfg, array)
    v = cfg.get_float("sim.v")
    with _configured("pulse (sim.f0, sim.bandwidth)"):
        pulse = PulseModel(cfg.get_float("sim.f0"),
                           cfg.get_float("sim.bandwidth"),
                           cfg.get_float("sim.amplitude"))
    noise_std = cfg.get_float("sim.noise_std")
    if not noise_std >= 0.0:
        raise ConfigError(f"sim.noise_std must be >= 0, got {noise_std}")
    nt = cfg.get_int("sim.nt")
    if nt < 0:
        raise ConfigError(f"sim.nt must be >= 0, got {nt}")
    nt = nt or _auto_nt(array, events, field, v, pulse)
    cube = simulate(array, events, field, pulse, v, nt, noise_std, seed)
    return cube, array, pulse


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    field = uio.read_scatterer_field(args.field)
    cube, _, pulse = _simulate_from(cfg, field, args.seed)
    uio.write_urf1(args.out, cube, pulse.f0)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out} (E={cube.num_events} C={cube.num_channels} "
          f"Nt={cube.num_samples})")
    return 0


def _load_cube(args, cfg: PipelineConfig):
    """Read URF1 and attach events/array reconstructed from the config.

    The format stores no event metadata, so the transmit scheme comes from
    the config (typically the sidecar written by ``simulate``); the array is
    rebuilt from the header's C, fs, v, f0 plus the configured pitch factor.
    """
    e_count, c_count, _, fs, v, f0 = uio.read_urf1_header(args.infile)
    array = _array_from(cfg, num_elements=c_count, f0=f0, v=v, fs=fs)
    events = _events_from(cfg, array)
    if len(events) != e_count:
        raise ConfigError(
            f"config describes {len(events)} events but file has {e_count}")
    cube, _ = uio.read_urf1(args.infile, events)
    return cube, array, f0


def _cmd_beamform(args) -> int:
    cfg = _resolve_config(args)
    cube, array, _ = _load_cube(args, cfg)
    v = cube.speed_of_sound
    grid = _grid_from(cfg, array, cube.num_samples, v)
    delays = tof.compute_delays(array, cube.events, grid, v)
    method = cfg.get_str("bf.method")
    mode = cfg.get_str("bf.compound")
    if mode == "channel" or cube.num_events == 1:
        focused = tof.focus(cube, delays, grid, per_event=False)
        image = _beamform_image(cfg, focused, method)
    elif mode in (bf.MEAN, bf.MV):
        per_event = tof.focus(cube, delays, grid, per_event=True)
        apod = ApodizationWindow(_APOD[cfg.get_str("bf.apod")],
                                 array.num_elements)
        images = [bf.das(per_event.event(e), apod)
                  for e in range(cube.num_events)]
        image = bf.compound(images, mode)
    else:
        raise ConfigError(f"bf.compound must be channel/mean/mv, got '{mode}'")
    _write_image_outputs(Path(args.out), image, cfg.get_float("bf.dyn_range"))
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 and {args.out}.pgm ({method})")
    return 0


def _read_bins(path) -> np.ndarray:
    bins = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                bins.extend(int(p) for p in body.split())
    return np.asarray(bins, dtype=np.int64)


def _sparse_lambda(cfg, adjoint_y) -> float | None:
    """``sparse.lambda``, or when that is <= 0 ``sparse.lambda_frac`` times
    ||A^H y||_inf, with ``adjoint_y()`` giving A^H y.

    None when the weight is automatic and A^H y = 0: x = 0 then solves the
    problem for every weight, so the caller writes it without a solve.
    """
    lam = cfg.get_float("sparse.lambda")
    if lam > 0:
        return lam
    peak = float(np.max(np.abs(adjoint_y())))
    return None if peak == 0.0 else cfg.get_float("sparse.lambda_frac") * peak


def _cmd_recover(args) -> int:
    cfg = _resolve_config(args)
    cube, _, _ = _load_cube(args, cfg)
    if not (0 <= args.event < cube.num_events
            and 0 <= args.channel < cube.num_channels):
        raise ConfigError(
            f"--event/--channel out of range for cube "
            f"(E={cube.num_events}, C={cube.num_channels})")
    trace = cube.samples[args.event, args.channel]
    bins = _read_bins(args.bins)
    model = sp.ScanlineModel(np.ones(bins.size, dtype=np.complex128), bins,
                             trace.size)
    from .numerics import fft
    y_tilde = fft(trace)[bins]
    lam = _sparse_lambda(cfg, lambda: model.adjoint(y_tilde))
    if lam is None:   # A^H y = 0, so x = 0 solves: nothing to recover
        x = np.zeros(trace.size)
    else:
        x = sp.recover_scanline(model, y_tilde, lam,
                                max_iters=cfg.get_int("sparse.max_iters"),
                                tol=cfg.get_float("sparse.tol"))
    uio.write_uim1(args.out + ".uim1", x[:, None])
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 (N={x.size}, M={bins.size}, "
          f"lambda={lam or 0.0:g})")
    return 0


def _cmd_deconvolve(args) -> int:
    cfg = _resolve_config(args)
    image = uio.read_uim1(args.infile)
    psf = uio.read_uim1(args.psf)
    lam = _sparse_lambda(cfg, lambda: sp.corr2_same_adjoint(image, psf))
    if lam is None:   # A^H y = 0, so x = 0 solves: nothing to deblur
        out = np.zeros(image.shape)
    else:
        out = sp.deconvolve(image, psf, lam,
                            max_iters=cfg.get_int("sparse.max_iters"),
                            tol=cfg.get_float("sparse.tol"))
    uio.write_uim1(args.out + ".uim1", out)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}.uim1 (lambda={lam or 0.0:g})")
    return 0


def _cmd_clutter(args) -> int:
    cfg = _resolve_config(args)
    frames = uio.read_uim1_seq(args.infile)
    cas = cl.build_casorati(list(frames))
    lam1 = cfg.get_float("clutter.lambda1") or cl.default_lambda1(cas.data)
    lam2 = cfg.get_float("clutter.lambda2") or 0.5 * lam1
    if args.method == "svt":
        tissue = cl.svt(cas.data, lam1)
        blood = cas.data - tissue
        iters = 1
    else:
        tissue, blood, iters = cl.rpca(
            cas, lam1, lam2, cfg.get_float("clutter.mu1"),
            cfg.get_float("clutter.mu2"), cfg.get_int("clutter.iters"),
            cfg.get_float("clutter.tol"))
    shape = cas.spatial_shape
    t = cas.num_frames
    tis_seq = np.stack([tissue[:, i].real.reshape(shape, order="F")
                        for i in range(t)])
    bld_seq = np.stack([blood[:, i].real.reshape(shape, order="F")
                        for i in range(t)])
    uio.write_uim1_seq(args.out + "_tissue.uim1", tis_seq)
    uio.write_uim1_seq(args.out + "_blood.uim1", bld_seq)
    power = cl.power_doppler(blood, shape)
    uio.write_pgm_linear(args.out + "_doppler.pgm", power)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}_tissue/_blood/.uim1 and _doppler.pgm "
          f"({args.method}, {iters} iterations)")
    return 0


def _cmd_ulm(args) -> int:
    cfg = _resolve_config(args)
    method = cfg.get_str("ulm.method")
    if method not in ("sparse", "centroid"):
        raise ConfigError(f"ulm.method must be sparse or centroid, got '{method}'")
    frames = uio.read_uim1_seq(args.frames)
    factor = cfg.get_int("ulm.factor")
    sigma = cfg.get_float("ulm.psf_sigma")
    thr = cfg.get_float("ulm.threshold")
    radius = cfg.get_int("ulm.window_radius")
    psf = ulm.gaussian_psf(sigma)
    hr_shape = (frames.shape[1] * factor, frames.shape[2] * factor)
    # every frame shares the operator, so one step serves the whole run
    step = ulm.localization_step(frames.shape[1:], psf, factor) \
        if method == "sparse" and len(frames) else None

    def localize(frame):
        if method == "sparse":
            lam = cfg.get_float("ulm.lambda_frac") \
                * ulm.max_correlation(frame, psf, factor)
            if lam == 0.0:   # A^T y = 0, so x = 0 solves: nothing to localize
                return ulm.LocalizationSet(np.empty((0, 3)))
            hr = ulm.localize_sparse(frame, psf, lam, factor, step=step,
                                     max_iters=cfg.get_int("ulm.max_iters"),
                                     tol=cfg.get_float("ulm.tol"))
            return ulm.detect_centroids(hr, thr, radius)
        det = ulm.detect_centroids(frame, thr, radius).detections.copy()
        det[:, :2] = det[:, :2] * factor + (factor - 1) / 2.0
        return ulm.LocalizationSet(det)

    sets = [localize(f) for f in frames]
    density = ulm.accumulate(sets, hr_shape)
    uio.write_uim1(args.out + "_density.uim1", density)
    uio.write_pgm_linear(args.out + "_density.pgm", density)
    with open(args.out + "_detections.csv", "w", encoding="ascii", newline="") as fh:
        fh.write("frame,x,z,intensity\r\n")
        for t, lset in enumerate(sets):
            for x, z, inten in lset.detections:
                fh.write(f"{t},{float(x)!r},{float(z)!r},{float(inten)!r}\r\n")
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out}_density.uim1/.pgm and _detections.csv "
          f"({sum(len(s) for s in sets)} detections)")
    return 0


def _parse_region(raw: str, what: str) -> mx.RegionSpec:
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 4:
        raise ConfigError(f"{what} must be 'x0,z0,x1,z1' in meters")
    return mx.RegionSpec(*(float(p) for p in parts))


def _cmd_metrics(args) -> int:
    cfg = _resolve_config(args)
    image = uio.read_uim1(args.infile)
    for key in ("bf.grid_lat_min", "bf.grid_lat_max", "bf.grid_ax_min",
                "bf.grid_ax_max"):
        if math.isnan(cfg.get_float(key)):
            raise ConfigError(f"metrics needs an explicit grid ({key} unset)")
    grid = ImagingGrid.regular(
        cfg.get_float("bf.grid_lat_min"), cfg.get_float("bf.grid_lat_max"),
        image.shape[0], cfg.get_float("bf.grid_ax_min"),
        cfg.get_float("bf.grid_ax_max"), image.shape[1])
    env = tof.envelope(image, axis=-1)
    rows = []
    ra = cfg.get_str("metrics.region_a")
    rb = cfg.get_str("metrics.region_b")
    if ra and rb:
        region_a = _parse_region(ra, "metrics.region_a")
        region_b = _parse_region(rb, "metrics.region_b")
        rows.append(("contrast_db", "a_vs_b",
                     mx.contrast_db(env, grid, region_a, region_b)))
        rows.append(("cnr", "a_vs_b", mx.cnr(env, grid, region_a, region_b)))
    if args.ref:
        rows.append(("nmse", "vs_ref", mx.nmse(image, uio.read_uim1(args.ref))))
    if not rows:
        raise ConfigError("metrics: need regions (metrics.region_a/b) or --ref")
    _write_csv(args.out, rows)
    cfg.dump(args.out + ".config.txt", args.seed)
    print(f"wrote {args.out} ({len(rows)} metrics)")
    return 0


def _demo_phantom(cfg: PipelineConfig, seed: int) -> ScattererField:
    rng = np.random.Generator(np.random.Philox(
        key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | 0xDE30))
    n = cfg.get_int("demo.num_scatterers")
    cx = cfg.get_float("demo.cyst_cx")
    cz = cfg.get_float("demo.cyst_cz")
    radius = cfg.get_float("demo.cyst_radius")
    rows = []
    while len(rows) < n:
        x = rng.uniform(-6e-3, 6e-3)
        z = rng.uniform(14e-3, 26e-3)
        if (x - cx) ** 2 + (z - cz) ** 2 <= radius ** 2:
            continue
        rows.append([x, z, rng.standard_normal()])
    return ScattererField(np.asarray(rows))


def _cmd_demo(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    field = _demo_phantom(cfg, args.seed)
    uio.write_scatterer_field(outdir / "phantom.txt", field)
    cube, array, pulse = _simulate_from(cfg, field, args.seed)
    uio.write_urf1(outdir / "cube.urf", cube, pulse.f0)
    v = cube.speed_of_sound

    cz = cfg.get_float("demo.cyst_cz")
    cx = cfg.get_float("demo.cyst_cx")
    radius = cfg.get_float("demo.cyst_radius")
    demo_grid = {"bf.grid_lat_min": -5e-3, "bf.grid_lat_max": 5e-3,
                 "bf.grid_ax_min": 15e-3, "bf.grid_ax_max": 25e-3}
    for key, value in demo_grid.items():
        if math.isnan(cfg.get_float(key)):
            cfg.set(key, repr(value))
    grid = _grid_from(cfg, array, cube.num_samples, v)
    delays = tof.compute_delays(array, cube.events, grid, v)
    focused = tof.focus(cube, delays, grid, per_event=False)
    dyn = cfg.get_float("bf.dyn_range")

    half = radius / math.sqrt(2.0) * 0.9
    cyst = mx.RegionSpec(cx - half, cz - half, cx + half, cz + half)
    bg = mx.RegionSpec(cx + radius + 1e-3, cz - half,
                       cx + radius + 1e-3 + 2 * half, cz + half)
    rows = []
    for method in ("das", "mv", "cf", "imap"):
        image = _beamform_image(cfg, focused, method)
        _write_image_outputs(outdir / method, image, dyn)
        env = tof.detect_envelope(image).envelope
        rows.append(("contrast_db", method, mx.contrast_db(env, grid, bg, cyst)))
        rows.append(("cnr", method, mx.cnr(env, grid, bg, cyst)))
    _write_csv(outdir / "metrics.csv", rows)
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


def _add_common(sp_parser, flag_map):
    sp_parser.add_argument("--seed", type=int, default=0,
                           help="seed for all randomness")
    sp_parser.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; has no effect "
                           "(every command runs in one thread)")
    sp_parser.add_argument("--config", help="key = value config file")
    sp_parser.add_argument("--set", nargs=2, action="append",
                           metavar=("KEY", "VALUE"),
                           help="override one config key")
    sp_parser.set_defaults(_flag_map=flag_map)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="usproc",
                     description="model-based ultrasound signal processing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize an RF data cube")
    p.add_argument("--field", required=True, help="scatterer text file")
    p.add_argument("--out", required=True, help="output URF1 path")
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--pw-angles", dest="pw_angles")
    p.add_argument("--num-elements", dest="num_elements", type=int)
    p.add_argument("--nt", type=int)
    _add_common(p, {"noise_std": "sim.noise_std", "pw_angles": "sim.pw_angles",
                    "num_elements": "sim.num_elements", "nt": "sim.nt"})
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("beamform", help="reconstruct an image from URF1")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--method", choices=["das", "mv", "wiener", "cf", "imap"])
    p.add_argument("--apod", choices=["rect", "hanning", "hamming"])
    p.add_argument("--iters", type=int)
    p.add_argument("--sub-L", dest="sub_l", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--dyn-range", dest="dyn_range", type=float)
    p.add_argument("--pw-angles", dest="pw_angles")
    _add_common(p, {"method": "bf.method", "apod": "bf.apod",
                    "iters": "bf.iters", "sub_l": "bf.sub_l", "eps": "bf.eps",
                    "dyn_range": "bf.dyn_range", "pw_angles": "sim.pw_angles"})
    p.set_defaults(func=_cmd_beamform)

    p = sub.add_parser("recover", help="sub-Nyquist scanline recovery")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bins", required=True, help="text file of DFT bin indices")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--event", type=int, default=0)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p, {"lam": "sparse.lambda"})
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("deconvolve", help="l1 deblurring of a UIM1 image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--psf", required=True, help="PSF kernel as UIM1")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--out", required=True)
    _add_common(p, {"lam": "sparse.lambda"})
    p.set_defaults(func=_cmd_deconvolve)

    p = sub.add_parser("clutter", help="tissue/flow separation of a sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["svt", "rpca"], default="rpca")
    p.add_argument("--lambda1", dest="lambda1", type=float)
    p.add_argument("--lambda2", dest="lambda2", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--out", required=True)
    _add_common(p, {"lambda1": "clutter.lambda1", "lambda2": "clutter.lambda2",
                    "iters": "clutter.iters"})
    p.set_defaults(func=_cmd_clutter)

    p = sub.add_parser("ulm", help="localization microscopy over a sequence")
    p.add_argument("--frames", required=True, help="multi-frame UIM1")
    p.add_argument("--lambda-frac", dest="lambda_frac", type=float)
    p.add_argument("--factor", type=int)
    p.add_argument("--method", choices=["sparse", "centroid"])
    p.add_argument("--out", required=True)
    _add_common(p, {"lambda_frac": "ulm.lambda_frac", "factor": "ulm.factor",
                    "method": "ulm.method"})
    p.set_defaults(func=_cmd_ulm)

    p = sub.add_parser("metrics", help="contrast/CNR/NMSE of a UIM1 image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--region-a", dest="region_a")
    p.add_argument("--region-b", dest="region_b")
    p.add_argument("--ref", help="reference UIM1 for NMSE")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p, {"region_a": "metrics.region_a", "region_b": "metrics.region_b"})
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("demo", help="cyst phantom end-to-end pipeline")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, {})
    p.set_defaults(func=_cmd_demo)

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
    except UsprocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
