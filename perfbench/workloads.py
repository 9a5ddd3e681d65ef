"""The four benchmark workloads: inputs, CLI calls, output checks, quality.

Each workload writes its inputs from the seed, runs one or more
``usproc.cli.run`` calls on them, names the files those calls must produce
and measures the quality of those files against what it generated.  Every
pipeline runs with ``--threads 1``.  ``full`` is the measured size; ``tiny``
only exercises the same code paths quickly for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from usproc import io as uio
from usproc import metrics as mx
from usproc import tof, ulm
from usproc.cli import PipelineConfig
from usproc.core import ImagingGrid, ScattererField, TransmitEvent
from usproc.errors import UsprocError

# The demo phantom's cyst and its measurement regions (see ``usproc demo``).
CYST_X, CYST_Z, CYST_R = 0.0, 0.02, 2e-3
_HALF = CYST_R / math.sqrt(2.0) * 0.9
CYST = mx.RegionSpec(CYST_X - _HALF, CYST_Z - _HALF, CYST_X + _HALF,
                     CYST_Z + _HALF)
BACKGROUND = mx.RegionSpec(CYST_X + CYST_R + 1e-3, CYST_Z - _HALF,
                           CYST_X + CYST_R + 1e-3 + 2 * _HALF, CYST_Z + _HALF)
# The demo's 10 x 10 mm image, in decimal form: argparse reads "-5e-3" after
# ``--set KEY`` as an option and rejects it.
DEMO_GRID = [("bf.grid_lat_min", "-0.005"), ("bf.grid_lat_max", "0.005"),
             ("bf.grid_ax_min", "0.015"), ("bf.grid_ax_max", "0.025")]

QUALITY_UNITS = {"contrast_db": "dB", "cnr": "ratio", "tissue_nmse": "ratio",
                 "blood_nmse": "ratio", "precision": "ratio",
                 "recall": "ratio", "loc_err_px": "HR_px"}
LOWER_IS_BETTER = {"tissue_nmse", "blood_nmse", "loc_err_px"}

# Quality is gated on one fixed seed, whose outputs the measuring process
# makes once more after timing.  Quality varies too much with the seed for a
# per-seed floor to be tight: over seeds 0-299 the demo's MV contrast spans
# 0.09 to 21.8 dB, the SA field's DAS contrast -5.7 to 31.4 dB and ULM
# precision 0.07 to 1.0 (a frame without bubbles gives only false
# detections).  The flow scene gives the same quality for every seed.
QUALITY_SEED = 0
QUALITY_TOLERANCE = 0.1


def _sets(pairs) -> list[str]:
    return [arg for key, value in pairs for arg in ("--set", key, str(value))]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        key=((seed & 0xFFFFFFFFFFFFFFFF) << 64) | stream))


class Workload:
    """One benchmark pipeline; subclasses fill in the workload specifics."""

    name = ""
    sizes: dict[str, dict] = {}
    # output file (relative to the output directory) -> how to parse it
    outputs: dict[str, str] = {}

    def __init__(self, size: str):
        self.size = size
        self.p = self.sizes[size]

    def make_inputs(self, inp: Path, seed: int):
        """Write the inputs for ``seed`` under ``inp``; return the truth."""
        return None

    def pipeline(self, inp: Path, out: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def quality(self, truth, out: Path) -> dict[str, float]:
        raise NotImplementedError

    def quality_problems(self, quality: dict[str, float]) -> list[str]:
        """Check the quality of :data:`QUALITY_SEED`'s outputs against the
        size's ``expected`` values, which the seed commit gives for that
        seed: each may be at most :data:`QUALITY_TOLERANCE` of its value
        worse.  The tiny size has none."""
        problems = []
        for name, expected in self.p.get("expected", {}).items():
            value = quality[name]
            if name in LOWER_IS_BETTER:
                limit = expected * (1 + QUALITY_TOLERANCE)
                ok = value <= limit
            else:
                limit = expected * (1 - QUALITY_TOLERANCE)
                ok = value >= limit
            if not (math.isfinite(value) and ok):
                problems.append(f"{name} = {value!r} is worse than {limit:.6g} "
                                f"(seed-commit value {expected})")
        return problems

    @staticmethod
    def common(seed: int) -> list[str]:
        return ["--seed", str(seed), "--threads", "1"]


class BmodeDemo(Workload):
    """``usproc demo``: simulate, focus, DAS/MV/CF/iMAP, envelope, metrics."""

    name = "bmode-demo"
    sizes = {
        # 32 elements as by default; 150 scatterers instead of 300 and
        # 33 x 53 pixels (lateral pitch one wavelength, axial 18-22 mm, both
        # regions inside) instead of 66 x 131, for about 1 s per run.
        "full": {"sets": [("demo.num_scatterers", 150), ("bf.grid_nx", 33),
                          ("bf.grid_ax_min", "0.018"),
                          ("bf.grid_ax_max", "0.022")],
                 "expected": {"contrast_db": 18.724, "cnr": 0.92820}},
        "tiny": {"sets": [("demo.num_scatterers", 40), ("sim.num_elements", 8),
                          ("bf.grid_nx", 12), ("bf.grid_nz", 40)]},
    }
    outputs = {"phantom.txt": "field", "cube.urf": "urf1",
               "das.uim1": "uim1", "das.pgm": "pgm", "mv.uim1": "uim1",
               "mv.pgm": "pgm", "cf.uim1": "uim1", "cf.pgm": "pgm",
               "imap.uim1": "uim1", "imap.pgm": "pgm",
               "metrics.csv": "csv", "demo.config.txt": "config"}

    def pipeline(self, inp, out, seed):
        return [["demo", "--out", str(out)] + self.common(seed)
                + _sets(self.p["sets"])]

    def quality(self, truth, out):
        rows = {}
        with open(out / "metrics.csv", newline="", encoding="ascii") as fh:
            for metric, method, value in list(csv.reader(fh))[1:]:
                rows[metric, method] = float(value)
        return {"contrast_db": rows["contrast_db", "mv"],
                "cnr": rows["cnr", "mv"]}


class SaDas(Workload):
    """Synthetic-aperture ``simulate`` of a cyst field, then DAS ``beamform``."""

    name = "sa-das"
    sizes = {
        # 32 elements, so 32 events; one scatterer per 2 mm lattice cell of
        # the 10 x 10 mm image (16 cells clear of the cyst).
        "full": {"cell": 2e-3, "sim": [], "bf": [],
                 "expected": {"contrast_db": 5.0015, "cnr": 0.28700}},
        "tiny": {"cell": 3.3e-3, "sim": [("sim.num_elements", 8)],
                 "bf": [("bf.grid_nx", 12), ("bf.grid_nz", 40)]},
    }
    outputs = {"cube.urf": "urf1", "cube.urf.config.txt": "config",
               "img.uim1": "uim1", "img.pgm": "pgm",
               "img.config.txt": "config"}

    def make_inputs(self, inp, seed):
        # A jittered lattice keeps the scatterer count, and so the simulator's
        # work, the same for every seed, and puts scatterers in both regions.
        cell = self.p["cell"]
        rng = _rng(seed, 0x5ADA5)
        xs = np.arange(-5e-3 + cell / 2, 5e-3, cell)
        zs = np.arange(15e-3 + cell / 2, 25e-3, cell)
        centers = np.array([(x, z) for x in xs for z in zs
                            if math.hypot(x - CYST_X, z - CYST_Z)
                            > CYST_R + cell / math.sqrt(2.0)])
        pos = centers + rng.uniform(-cell / 2, cell / 2, centers.shape)
        amps = rng.standard_normal(len(centers))
        uio.write_scatterer_field(inp / "field.txt",
                                  ScattererField(np.column_stack([pos, amps])))
        return None

    def pipeline(self, inp, out, seed):
        cube = str(out / "cube.urf")
        return [
            ["simulate", "--field", str(inp / "field.txt"), "--out", cube]
            + self.common(seed) + _sets([("sim.scheme", "sa")] + self.p["sim"]),
            ["beamform", "--in", cube, "--out", str(out / "img"),
             "--method", "das", "--config", cube + ".config.txt"]
            + self.common(seed) + _sets(DEMO_GRID + self.p["bf"]),
        ]

    def quality(self, truth, out):
        image = uio.read_uim1(out / "img.uim1")
        grid = ImagingGrid.regular(-5e-3, 5e-3, image.shape[0],
                                   15e-3, 25e-3, image.shape[1])
        env = tof.envelope(image, axis=-1)
        return {"contrast_db": mx.contrast_db(env, grid, BACKGROUND, CYST),
                "cnr": mx.cnr(env, grid, BACKGROUND, CYST)}


class FlowRpca(Workload):
    """``usproc clutter --method rpca`` on a tissue-plus-flow sequence."""

    name = "flow-rpca"
    sizes = {
        "full": {"shape": (10, 10), "frames": 32, "flows": 6,
                 "expected": {"tissue_nmse": 0.016540,
                              "blood_nmse": 0.25088}},
        "tiny": {"shape": (6, 6), "frames": 12, "flows": 4},
    }
    outputs = {"flow_tissue.uim1": "uim1_seq", "flow_blood.uim1": "uim1_seq",
               "flow_doppler.pgm": "pgm", "flow.config.txt": "config"}

    def _scene(self):
        """Fixed Casorati scene: rank-2 tissue, flowing pixels, 1e-3 noise."""
        (n, m), t, flows = self.p["shape"], self.p["frames"], self.p["flows"]
        rng = _rng(0, 0xF10)
        u, _ = np.linalg.qr(rng.standard_normal((n * m, 2)))
        tt = np.arange(t)
        v, _ = np.linalg.qr(np.column_stack(
            [1.0 + 0.1 * np.sin(2 * np.pi * tt / t), np.linspace(-1.0, 1.0, t)]))
        tissue = (u * np.array([30.0, 15.0])) @ v.T
        blood = np.zeros((n * m, t))
        for k, row in enumerate(np.sort(rng.choice(n * m, flows, replace=False))):
            # one harmonic per flowing pixel, all below the temporal Nyquist
            blood[row] = rng.uniform(0.5, 1.0) * np.sin(
                2 * np.pi * (t // 8 + k) * tt / t + rng.uniform(0, 2 * np.pi))
        noise = 1e-3 * rng.standard_normal((n * m, t))
        return tissue, blood, noise

    def make_inputs(self, inp, seed):
        # The seed permutes the pixels and flips their signs.  RPCA is
        # equivariant to both, so every seed needs the same iterations (they
        # vary by +-15% between independently drawn scenes), while the input
        # and output bytes differ from seed to seed.
        tissue, blood, noise = self._scene()
        rng = _rng(seed, 0xF1057)
        perm = rng.permutation(tissue.shape[0])
        sign = rng.choice([-1.0, 1.0], tissue.shape[0])[:, None]
        tissue, blood, noise = (sign * a[perm] for a in (tissue, blood, noise))
        uio.write_uim1_seq(inp / "seq.uim1", self._frames(tissue + blood + noise))
        return {"tissue": self._frames(tissue), "blood": self._frames(blood)}

    def _frames(self, casorati):
        shape = self.p["shape"]
        return np.stack([casorati[:, i].reshape(shape, order="F")
                         for i in range(casorati.shape[1])])

    def pipeline(self, inp, out, seed):
        return [["clutter", "--in", str(inp / "seq.uim1"), "--method", "rpca",
                 "--out", str(out / "flow")] + self.common(seed)]

    def quality(self, truth, out):
        return {name + "_nmse": mx.nmse(uio.read_uim1_seq(out / f"flow_{name}.uim1"),
                                        truth[name])
                for name in ("tissue", "blood")}


class UlmSparse(Workload):
    """``usproc ulm --method sparse`` on simulated microbubble frames."""

    name = "ulm-sparse"
    sizes = {
        "full": {"hr": 64, "frames": 2, "bubbles": 6.0, "sets": [],
                 "expected": {"precision": 0.9, "recall": 0.81818,
                              "loc_err_px": 0.20869}},
        "tiny": {"hr": 32, "frames": 2, "bubbles": 3.0,
                 "sets": [("ulm.max_iters", 60)]},
    }
    outputs = {"ulm_density.uim1": "uim1", "ulm_density.pgm": "pgm",
               "ulm_detections.csv": "csv", "ulm.config.txt": "config"}

    def make_inputs(self, inp, seed):
        # PSF sigma 2 HR px and factor 4 as in ulm's defaults; 30 dB SNR
        hr = self.p["hr"]
        frames = ulm.simulate_bubbles((hr, hr), self.p["frames"],
                                      self.p["bubbles"], 2.0, 4, 30.0, seed)
        uio.write_uim1_seq(inp / "frames.uim1",
                           np.stack([f.image for f in frames]))
        return [f.truth for f in frames]

    def pipeline(self, inp, out, seed):
        return [["ulm", "--frames", str(inp / "frames.uim1"),
                 "--method", "sparse", "--out", str(out / "ulm")]
                + self.common(seed) + _sets(self.p["sets"])]

    def quality(self, truth, out):
        dets: dict[int, list] = {t: [] for t in range(len(truth))}
        with open(out / "ulm_detections.csv", newline="", encoding="ascii") as fh:
            for row in list(csv.reader(fh))[1:]:
                dets[int(row[0])].append([float(v) for v in row[1:]])
        matched = detected = truths = 0
        err_sum = 0.0
        for t, tru in enumerate(truth):
            det = np.asarray(dets[t], dtype=np.float64).reshape(-1, 3)
            precision, _, err = ulm.score(det, tru, 1.0)
            hits = round(precision * len(det))
            matched += hits
            detected += len(det)
            truths += len(tru)
            err_sum += err * hits
        return {"precision": matched / max(detected, 1),
                "recall": matched / max(truths, 1),
                "loc_err_px": err_sum / max(matched, 1)}


WORKLOADS = {w.name: w for w in (BmodeDemo, SaDas, FlowRpca, UlmSparse)}


# ---------------------------------------------------------------------------
# Output checks


def _read_pgm(path: Path) -> np.ndarray:
    magic, dims, maxval, pixels = path.read_bytes().split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    pix = np.frombuffer(pixels, dtype=np.uint8)
    if magic != b"P5" or int(maxval) != 255 or pix.size != width * height:
        raise ValueError("malformed P5 PGM")
    return pix


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="ascii") as fh:
        header, *rows = csv.reader(fh)
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV")
    return np.array([float(row[-1]) for row in rows])


def _read_urf1(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
    events = struct.unpack("<I", head[4:8])[0] if len(head) == 8 else 1
    cube, _ = uio.read_urf1(path, [TransmitEvent.plane_wave(0.0)] * events)
    return cube.samples


def _read_config(path: Path) -> None:
    PipelineConfig().load_file(path)


READERS = {
    "uim1": uio.read_uim1,
    "uim1_seq": uio.read_uim1_seq,
    "urf1": _read_urf1,
    "pgm": _read_pgm,
    "csv": _read_csv,
    "config": _read_config,
    "field": lambda path: uio.read_scatterer_field(path).scatterers,
}


def check_outputs(workload: Workload, out: Path) -> tuple[dict, list[str]]:
    """Parse and hash every expected output; return (sha256 map, problems)."""
    hashes, problems = {}, []
    for rel, kind in workload.outputs.items():
        path = out / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        try:
            values = READERS[kind](path)
        except (UsprocError, ValueError, OSError) as exc:
            problems.append(f"{rel}: unparsable ({exc})")
            continue
        if values is not None and not np.all(np.isfinite(values)):
            problems.append(f"{rel}: non-finite values")
        hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes, problems
