"""CLI pipelines: exit codes, reproducibility, config round-trips, formats."""

import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_same_float32, traced_peak
from oracles import analytic_direct, dense_norm, simulate_full_trace

from usproc import beamform as bf
from usproc import cli, core
from usproc import clutter as cl
from usproc import io as uio
from usproc import tof
from usproc.cli import PipelineConfig, run
from usproc.core import RECTANGULAR, ApodizationWindow
from usproc.errors import ConfigError
from usproc.simulator import PulseModel


def write_field(path, rows="0.0 0.008 1.0\n"):
    path.write_text("# test field\n" + rows)
    return str(path)


def file_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def assert_config_error(rc, capsys, key):
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err, err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env(**extra):
    """The environment for a subprocess that imports this checkout's usproc."""
    path = os.pathsep.join([SRC] + ([os.environ["PYTHONPATH"]]
                                    if os.environ.get("PYTHONPATH") else []))
    return dict(os.environ, PYTHONPATH=path, **extra)


#: ``simulate``'s sidecar with every key at its default (seed 0); the
#: benchmark hashes these dumps, so their bytes stay fixed.
DEFAULT_SIDECAR = "".join(f"{line}\n" for line in [
    "# resolved usproc configuration", "# seed = 0",
    "bf.apod = rect", "bf.compound = channel", "bf.dyn_range = 60.0",
    "bf.eps = 0.01", "bf.grid_ax_max = nan", "bf.grid_ax_min = nan",
    "bf.grid_lat_max = nan", "bf.grid_lat_min = nan", "bf.grid_nx = 0",
    "bf.grid_nz = 0", "bf.iters = 2", "bf.k = 2", "bf.method = das",
    "bf.sub_l = 0", "clutter.iters = 500", "clutter.lambda1 = 0.0",
    "clutter.lambda2 = 0.0", "clutter.mu1 = 0.5", "clutter.mu2 = 0.5",
    "clutter.tol = 1e-6", "demo.cyst_cx = 0.0", "demo.cyst_cz = 0.02",
    "demo.cyst_radius = 2e-3", "demo.num_scatterers = 300",
    "metrics.region_a = ", "metrics.region_b = ", "sim.amplitude = 1.0",
    "sim.bandwidth = 0.6", "sim.f0 = 5e6", "sim.fs_factor = 8.0",
    "sim.noise_std = 0.0", "sim.nt = 0", "sim.num_elements = 32",
    "sim.pitch_factor = 0.5", "sim.pw_angles = 0.0", "sim.scheme = pw",
    "sim.v = 1540.0", "sparse.lambda = 0.0", "sparse.lambda_frac = 0.015",
    "sparse.max_iters = 5000", "sparse.tol = 1e-8", "ulm.factor = 4",
    "ulm.lambda_frac = 0.05", "ulm.max_iters = 100", "ulm.method = sparse",
    "ulm.psf_sigma = 2.0", "ulm.threshold = 0.10", "ulm.tol = 1e-5",
    "ulm.window_radius = 1"]).encode("ascii")


class TestConfig:
    def test_unknown_key_rejected(self):
        cfg = PipelineConfig()
        with pytest.raises(ConfigError, match="unknown config key"):
            cfg.set("sim.bogus", "1")

    def test_file_parse_with_comments(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# comment\nsim.f0 = 6e6  # inline\n\nbf.method = mv\n")
        cfg = PipelineConfig()
        cfg.load_file(p)
        cfg.parse()
        assert cfg["sim.f0"] == 6e6
        assert cfg["bf.method"] == "mv"

    def test_every_key_has_default_and_help(self):
        for key, (default, domain, help_text) in cli.CONFIG_SCHEMA.items():
            assert isinstance(default, str)
            assert domain.text and help_text

    def test_every_default_in_its_domain(self):
        for key, (default, domain, _) in cli.CONFIG_SCHEMA.items():
            assert domain.holds(domain.parse(default)), key

    def test_readme_table_follows_schema(self):
        readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
        rows = {line.split(" | ")[0]: line for line in readme.splitlines()
                if line.startswith("| `")}
        for key, (default, domain, help_text) in cli.CONFIG_SCHEMA.items():
            cells = [f"`{default}`" if default else "(empty)", domain.text,
                     help_text]
            assert rows[f"| `{key}`"] == " | ".join(
                [f"| `{key}`"] + [c.replace("|", "\\|") for c in cells]) + " |"

    def test_default_simulate_sidecar_bytes(self, tmp_path):
        field = write_field(tmp_path / "f.txt")
        assert run(["simulate", "--field", field, "--out", str(tmp_path / "c.urf")]) == 0
        assert (tmp_path / "c.urf.config.txt").read_bytes() == DEFAULT_SIDECAR

    def test_flag_value_logged_as_typed(self, tmp_path):
        field = write_field(tmp_path / "f.txt")
        out = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(out),
                    "--noise-std", ".5", "--num-elements", "08"]) == 0
        lines = (tmp_path / "c.urf.config.txt").read_text().splitlines()
        assert "sim.noise_std = .5" in lines and "sim.num_elements = 08" in lines

    def test_non_ascii_config_file_names_key(self, tmp_path, capsys):
        conf = tmp_path / "c.txt"
        conf.write_bytes("sim.f0 = 5e6\u00b5\n".encode("utf-8"))
        rc = run(["simulate", "--field", str(tmp_path / "f.txt"),
                  "--out", str(tmp_path / "c.urf"), "--config", str(conf)])
        assert_config_error(rc, capsys, "sim.f0")


class TestExitCodes:
    def test_unknown_flag_exit_1_names_flag(self, capsys):
        rc = run(["simulate", "--field", "x", "--out", "y", "--bogus-flag"])
        assert rc == 1
        assert "--bogus-flag" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,key", [
        (command, flag, key) for command, flags in cli.FLAGS.items()
        for flag, key in flags.items()])
    @pytest.mark.parametrize("value", ["xx", "nan"])
    def test_flag_is_set_shorthand(self, tmp_path, capsys, command, flag, key,
                                   value):
        # the inputs do not exist: reading them would exit 2
        missing = str(tmp_path / "missing")
        inputs = {"simulate": ["--field"], "beamform": ["--in"],
                  "recover": ["--in", "--bins"], "deconvolve": ["--in", "--psf"],
                  "clutter": ["--in"], "ulm": ["--frames"], "metrics": ["--in"]}
        argv = [command, "--out", str(tmp_path / "o")] + [
            arg for opt in inputs[command] for arg in (opt, missing)]
        errors = []
        for given in ([flag, value], ["--set", key, value]):
            assert run(argv + given) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"config error: {key}: expected "), errors[0]
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        field = write_field(tmp_path / "f.txt")
        rc = run(["simulate", "--field", field, "--out", str(tmp_path / "o.urf"),
                  "--set", "sim.bogus", "1"])
        assert rc == 1
        assert "sim.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        b"0.0 abc 1.0\n", b"0.0 0.01 1.0 # \xb5s\n", b"\xb5\n",
        b"0.0 -0.01 1.0\n", b"0.0 0.0 1.0\n", b"0.0 nan 1.0\n",
        b"0.0 0.01 1e400\n", b"0.0 0.01\n", b"0.0 0.01 1.0 2.0\n"])
    def test_bad_scatterer_file_exit_2(self, tmp_path, capsys, row):
        field = tmp_path / "f.txt"
        field.write_bytes(b"# x z amp\n0.0 0.008 1.0\n" + row)
        rc = run(["simulate", "--field", str(field),
                  "--out", str(tmp_path / "c.urf")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scatterer file line 3: expected "), err
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_truncated_urf_exit_2(self, tmp_path, capsys):
        field = write_field(tmp_path / "f.txt")
        out = tmp_path / "cube.urf"
        assert run(["simulate", "--field", field, "--out", str(out)]) == 0
        out.write_bytes(out.read_bytes()[:-7])
        rc = run(["beamform", "--in", str(out), "--out", str(tmp_path / "img")])
        assert rc == 2
        assert "truncated payload" in capsys.readouterr().err

    def test_forged_urf_header_exit_2(self, tmp_path, capsys):
        # E=1, C=Nt=2**31 declares 2**64 bytes in a 40-byte file
        path = tmp_path / "f.urf1"
        path.write_bytes(b"URF1" + struct.pack("<III", 1, 2 ** 31, 2 ** 31)
                         + struct.pack("<ddd", 40e6, 1540.0, 5e6))
        rc = run(["beamform", "--in", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "truncated payload" in capsys.readouterr().err

    def test_header_without_usable_array_exit_2(self, tmp_path, capsys):
        # fs below 2 f0 admits no transducer array to rebuild
        path = tmp_path / "f.urf1"
        path.write_bytes(b"URF1" + struct.pack("<III", 1, 2, 1)
                         + struct.pack("<ddd", 8e6, 1540.0, 5e6) + bytes(8))
        rc = run(["beamform", "--in", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad header" in capsys.readouterr().err

    def test_forged_uim1_sequence_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.uim1"
        path.write_bytes(b"UIM1" + struct.pack("<III", 1, 2 ** 31, 2 ** 31))
        rc = run(["clutter", "--in", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "truncated payload" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["clutter", "--in", "{seq}"], ["ulm", "--frames", "{seq}"]])
    def test_empty_uim1_sequence_of_unholdable_shape_exit_2(
            self, tmp_path, capsys, argv):
        # T = 0 frames of 2**30 x 2**30: no payload, but no array either
        path = tmp_path / "s.uim1"
        path.write_bytes(b"UIM1" + struct.pack("<III", 2 ** 30, 2 ** 30, 0))
        argv = [a.format(seq=path) for a in argv]
        rc = run(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad header" in capsys.readouterr().err

    def test_empty_urf_of_unholdable_shape_exit_2(self, tmp_path, capsys):
        path = tmp_path / "f.urf1"
        path.write_bytes(b"URF1" + struct.pack("<III", 0, 2 ** 32 - 1, 2 ** 32 - 1)
                         + struct.pack("<ddd", 40e6, 1540.0, 5e6))
        rc = run(["beamform", "--in", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("argv", [
        ["clutter", "--in", "{seq}", "--method", "rpca"],
        ["clutter", "--in", "{seq}", "--method", "svt"],
        ["ulm", "--frames", "{seq}", "--method", "sparse"],
        ["ulm", "--frames", "{seq}", "--method", "centroid"],
        ["metrics", "--in", "{good}", "--ref", "{img}",
         "--set", "bf.grid_lat_min", "-0.005", "--set", "bf.grid_lat_max", "0.005",
         "--set", "bf.grid_ax_min", "0.001", "--set", "bf.grid_ax_max", "0.01"]])
    def test_non_finite_uim1_exit_2(self, tmp_path, capsys, argv, bad):
        # one NaN or Inf pixel is a data error, named before anything is written
        frames = np.ones((3, 8, 8))
        frames[1, 4, 5] = bad
        paths = {"seq": tmp_path / "s.uim1", "img": tmp_path / "i.uim1",
                 "good": tmp_path / "g.uim1"}
        uio.write_uim1_seq(paths["seq"], frames)
        uio.write_uim1(paths["img"], frames[1])
        uio.write_uim1(paths["good"], frames[0])
        before = sorted(tmp_path.iterdir())
        rc = run([arg.format(**paths) for arg in argv]
                 + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "non-finite-sample: pixels" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("lam1", [[], ["--set", "clutter.lambda1", "0.5"]])
    @pytest.mark.parametrize("method", ["rpca", "svt"])
    @pytest.mark.parametrize("shape,message", [
        ((1, 4, 5), "dimension-mismatch: need T >= 2 frames"),
        ((4, 0, 5), "dimension-mismatch: frames of 0 x 5 pixels"),
        ((4, 3, 0), "dimension-mismatch: frames of 3 x 0 pixels")])
    def test_clutter_sequence_without_matrix_exit_2(self, tmp_path, capsys, shape,
                                                    message, method, lam1):
        # one frame, or frames without pixels, make no Casorati matrix; the
        # error names the frames before any weight or solve is computed
        seq = tmp_path / "s.uim1"
        uio.write_uim1_seq(seq, np.ones(shape))
        rc = run(["clutter", "--in", str(seq), "--method", method,
                  "--out", str(tmp_path / "cl")] + lam1)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("cl*")) == []

    @pytest.mark.parametrize("text", ["1 2 x\n", "1 2.5\n", "1 \u00b2\n",
                                      f"{2 ** 64}\n", "1 1\n", "512\n", "-1\n"])
    def test_non_integer_bins_exit_2(self, tmp_path, capsys, text):
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "4", "--nt", "512"]) == 0
        bins = tmp_path / "bins.txt"
        bins.write_text(text, encoding="utf-8")
        capsys.readouterr()
        rc = run(["recover", "--in", cube, "--bins", str(bins),
                  "--out", str(tmp_path / "rec")])
        assert rc == 2
        assert "bins must be unique integers in [0, 512)" in capsys.readouterr().err
        assert not (tmp_path / "rec.uim1").exists()

    @pytest.mark.parametrize("empty", ["image", "psf"])
    @pytest.mark.parametrize("lam", [[], ["--lambda", "0.1"]])
    def test_empty_deconvolve_input_exit_2(self, tmp_path, capsys, empty, lam):
        # a 12-byte UIM1 with Rx=0, Rz=5; the default lambda reaches the
        # adjoint first, an explicit one goes straight to deconvolve
        paths = {n: tmp_path / f"{n}.uim1" for n in ("image", "psf")}
        uio.write_uim1(paths["image"], np.ones((6, 6)))
        uio.write_uim1(paths["psf"], np.ones((3, 3)) / 9.0)
        paths[empty].write_bytes(b"UIM1" + struct.pack("<II", 0, 5))
        rc = run(["deconvolve", "--in", str(paths["image"]),
                  "--psf", str(paths["psf"]), "--out", str(tmp_path / "o")] + lam)
        assert rc == 2
        assert "dimension-mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mv", "wiener"])
    def test_rank_deficient_covariance_exit_2(self, tmp_path, capsys, method):
        # only channel 0 carries data, so without diagonal loading each
        # covariance is zero but for its (0, 0) entry and fails the Cholesky
        # test; the default loading makes the same cube solvable
        nt = 800
        samples = np.zeros((1, 32, nt), dtype="<f4")
        samples[0, 0] = 1.0 + 0.5 * np.sin(0.7 * np.arange(nt))
        path = tmp_path / "c.urf1"
        path.write_bytes(b"URF1" + struct.pack("<III", 1, 32, nt)
                         + struct.pack("<ddd", 40e6, 1540.0, 5e6) + samples.tobytes())
        argv = ["beamform", "--in", str(path), "--out", str(tmp_path / "o"),
                "--method", method, "--set", "bf.grid_nx", "8",
                "--set", "bf.grid_nz", "32"]
        assert run(argv + ["--eps", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: singular-matrix"), err
        assert not (tmp_path / "o.uim1").exists()
        assert run(argv + ["--eps", "0.01"]) == 0

    @pytest.mark.parametrize("key,value", [
        ("sim.f0", "0"), ("sim.f0", "nan"), ("sim.bandwidth", "3"),
        ("sim.noise_std", "-1"), ("sim.noise_std", "nan"),
        ("sim.pitch_factor", "0"), ("sim.v", "0"), ("sim.v", "inf"),
        ("sim.fs_factor", "1"), ("sim.pw_angles", "2.0"), ("sim.nt", "-3")])
    def test_bad_simulator_value_exit_1(self, tmp_path, capsys, key, value):
        field = write_field(tmp_path / "f.txt")
        rc = run(["simulate", "--field", field, "--out", str(tmp_path / "c.urf"),
                  "--set", key, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("key,value", [
        ("ulm.lambda_frac", "-0.05"), ("ulm.lambda_frac", "0"),
        ("ulm.psf_sigma", "0"), ("ulm.psf_sigma", "nan"), ("ulm.tol", "0"),
        ("ulm.window_radius", "0"), ("ulm.threshold", "1.5"),
        ("ulm.factor", "0"), ("ulm.max_iters", "0"), ("ulm.method", "xx"),
        ("ulm.psf_sigma", "1e6")])
    def test_bad_ulm_value_exit_1(self, tmp_path, capsys, key, value):
        # the frames file does not exist: reading it would exit 2
        rc = run(["ulm", "--frames", str(tmp_path / "frames.uim1"),
                  "--out", str(tmp_path / "u"), "--set", key, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["simulate", "--field"], ["ulm", "--frames"],
                                      ["clutter", "--in"]])
    def test_overflowing_psf_sigma_exit_1(self, tmp_path, capsys, argv):
        # every subcommand sizes the ULM PSF; 4 sigma overflows to inf here
        rc = run(argv + [str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
                         "--set", "ulm.psf_sigma", "1e308"])
        assert_config_error(rc, capsys, "ulm.psf_sigma")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "demo"])
    @pytest.mark.parametrize("key,value", [
        ("sim.fs_factor", "inf"), ("sim.fs_factor", "1e305"),
        ("sim.pitch_factor", "1e300"), ("sim.v", "1e300"),
        ("sim.f0", "1e-300"), ("sim.amplitude", "nan"),
        ("sim.amplitude", "inf"), ("sim.noise_std", "inf"),
        ("sim.nt", "-3"), ("sim.scheme", "xx"), ("sim.pw_angles", ""),
        ("sim.f0", "\uff15e6"), ("sim.bandwidth", "1e-310"),
        ("sim.nt", "100000000000"), ("sim.num_elements", "100000000000000"),
        ("sim.fs_factor", "1e9"), ("sim.fs_factor", "1e300")])
    def test_bad_simulator_value_exit_1_before_reading(self, tmp_path, capsys,
                                                       command, key, value):
        # the field file does not exist: reading it would exit 2
        argv = {"simulate": ["simulate", "--field", str(tmp_path / "f.txt"),
                             "--out", str(tmp_path / "c.urf")],
                "demo": ["demo", "--out", str(tmp_path / "d")]}[command]
        rc = run(argv + ["--set", key, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert list(tmp_path.iterdir()) == []

    def test_auto_window_overflow_exit_1(self, tmp_path, capsys):
        # a scatterer so far off that its squared distance overflows
        field = write_field(tmp_path / "f.txt", "1e200 0.008 1.0\n")
        rc = run(["simulate", "--field", field, "--out", str(tmp_path / "c.urf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sim.nt" in err
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("command", ["beamform", "demo"])
    @pytest.mark.parametrize("key,value", [
        ("bf.k", "-1"), ("bf.eps", "-1"), ("bf.eps", "inf"), ("bf.eps", "nan"),
        ("bf.dyn_range", "0"), ("bf.dyn_range", "-60"),
        ("bf.dyn_range", "inf"), ("bf.sub_l", "-1"), ("bf.iters", "0"),
        ("bf.grid_nx", "-3"), ("bf.grid_nz", "-3"), ("bf.method", "xx"),
        ("bf.apod", "xx"), ("bf.compound", "xx"), ("bf.grid_ax_min", "0"),
        ("bf.grid_lat_max", "inf")])
    def test_bad_beamform_value_exit_1(self, tmp_path, capsys, command, key,
                                       value):
        # the cube does not exist: reading it would exit 2
        argv = {"beamform": ["beamform", "--in", str(tmp_path / "c.urf"),
                             "--out", str(tmp_path / "img")],
                "demo": ["demo", "--out", str(tmp_path / "d")]}[command]
        rc = run(argv + ["--set", key, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["deconvolve", "recover"])
    @pytest.mark.parametrize("key,value", [
        ("sparse.lambda_frac", "0"), ("sparse.lambda_frac", "-0.015"),
        ("sparse.tol", "0"), ("sparse.tol", "-0.5"),
        ("sparse.max_iters", "0")])
    def test_bad_sparse_value_exit_1(self, tmp_path, capsys, command, key,
                                     value):
        # the inputs do not exist: reading them would exit 2
        second = "--psf" if command == "deconvolve" else "--bins"
        rc = run([command, "--in", str(tmp_path / "in"),
                  second, str(tmp_path / "aux"), "--out", str(tmp_path / "o"),
                  "--set", key, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("key,value", [
        ("clutter.mu1", "nan"), ("clutter.mu1", "-1"), ("clutter.mu2", "2"),
        ("clutter.lambda1", "-1"), ("clutter.lambda1", "nan"),
        ("clutter.lambda2", "-1"), ("clutter.iters", "0"),
        ("clutter.iters", "-5"), ("clutter.tol", "-1"), ("clutter.tol", "0")])
    def test_bad_clutter_value_exit_1(self, tmp_path, capsys, key, value):
        # the sequence does not exist: reading it would exit 2
        rc = run(["clutter", "--in", str(tmp_path / "seq.uim1"),
                  "--out", str(tmp_path / "cl"), "--set", key, value])
        assert_config_error(rc, capsys, key)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [
        ("metrics.region_a", "a,b,c,d"), ("metrics.region_b", "0,0,1"),
        ("metrics.region_a", "0,nan,1,1"), ("bf.grid_ax_min", "0"),
        ("bf.grid_lat_min", "0.006"), ("bf.grid_lat_max", "nan")])
    def test_bad_metrics_value_exit_1(self, tmp_path, capsys, key, value):
        # the image does not exist: reading it would exit 2
        grid = {"bf.grid_lat_min": "-0.005", "bf.grid_lat_max": "0.005",
                "bf.grid_ax_min": "0.001", "bf.grid_ax_max": "0.01",
                "metrics.region_a": "-0.004,0.001,0.0,0.005",
                "metrics.region_b": "0.0,0.001,0.004,0.005"}
        grid[key] = value
        conf = tmp_path / "m.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in grid.items()))
        rc = run(["metrics", "--in", str(tmp_path / "img.uim1"),
                  "--out", str(tmp_path / "m.csv"), "--config", str(conf)])
        assert_config_error(rc, capsys, key)
        assert [p.name for p in tmp_path.iterdir()] == ["m.conf"]

    def test_overflowing_grid_span_is_one_config_error(self, tmp_path, capsys):
        # the bounds' difference overflows: no numpy warning may reach the
        # caller before the config error
        conf = tmp_path / "m.conf"
        conf.write_text("bf.grid_lat_min = -1.7e308\nbf.grid_lat_max = 1.7e308\n"
                        "bf.grid_ax_min = 0.001\nbf.grid_ax_max = 0.01\n"
                        "metrics.region_a = -0.004,0.001,0.0,0.005\n"
                        "metrics.region_b = 0.0,0.001,0.004,0.005\n")
        uio.write_uim1(tmp_path / "img.uim1", np.ones((4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["metrics", "--in", str(tmp_path / "img.uim1"),
                      "--out", str(tmp_path / "m.csv"), "--config", str(conf)])
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith("config error: bf.grid_")

    @pytest.mark.parametrize("row,key,value", [
        ("0.0 0.008 1e10\n", "sim.amplitude", "1e300"),
        ("0.0 0.008 1.0\n", "sim.noise_std", "1e308")], ids=["echo", "noise"])
    def test_overflowing_samples_are_one_error(self, tmp_path, capsys, row,
                                               key, value):
        # the simulated samples overflow to inf: no numpy warning may reach
        # the caller before the non-finite-sample error
        field = write_field(tmp_path / "f.txt", row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["simulate", "--field", field,
                      "--out", str(tmp_path / "c.urf"), "--set", key, value])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("error: non-finite-sample")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("key,value", [
        ("demo.num_scatterers", "-1"), ("demo.num_scatterers", "0"),
        ("demo.num_scatterers", str(10 ** 15)), ("demo.cyst_radius", "nan"),
        ("demo.cyst_radius", "0"), ("demo.cyst_cx", "1e200"),
        ("demo.cyst_cz", "inf"),
        # the cyst or the background beside it holds no grid pixel
        ("demo.cyst_cx", "0.9"), ("demo.cyst_radius", "1e-6"),
        ("bf.sub_l", "33"),
        # MV's covariances padded by K: checked before anything is simulated
        ("bf.k", "1000000000")])
    def test_bad_demo_value_exit_1(self, tmp_path, capsys, key, value):
        rc = run(["demo", "--out", str(tmp_path / "d"), "--set", key, value])
        assert_config_error(rc, capsys, key)
        assert list(tmp_path.iterdir()) == []

    def test_cyst_over_phantom_box_exit_1_without_hanging(self, tmp_path):
        # rejection sampling used to spin forever on this cyst
        out = subprocess.run(
            [sys.executable, "-c", "from usproc.cli import main; main()", "demo",
             "--out", str(tmp_path / "d"), "--set", "demo.cyst_radius", "1.0"],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert out.stderr.startswith("config error:")
        assert "demo.cyst_radius" in out.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key,value", [
        ("bf.compound", "xx"), ("bf.sub_l", "9"), ("bf.k", "1000000000")])
    def test_bad_value_on_real_cube_exit_1(self, tmp_path, capsys, monkeypatch,
                                           key, value):
        # an unknown compounding mode used to run as 'channel' on a one-angle
        # cube, L > C used to focus every pixel and then exit 2, and a huge K
        # to raise MemoryError padding the covariances; each is now reported
        # before the cube is read or focused
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--set", "sim.num_elements", "8"]) == 0
        capsys.readouterr()
        calls = []
        for module, name in ((uio, "read_urf1"), (tof, "focus")):
            def counted(*a, _f=getattr(module, name), _n=name, **k):
                calls.append(_n)
                return _f(*a, **k)
            monkeypatch.setattr(module, name, counted)
        rc = run(["beamform", "--in", cube, "--out", str(tmp_path / "img"),
                  "--method", "mv", "--config", cube + ".config.txt",
                  "--set", key, value])
        assert_config_error(rc, capsys, key)
        assert calls == []
        assert list(tmp_path.glob("img*")) == []

    def test_huge_k_for_mv_compounding_exit_1(self, tmp_path, capsys):
        # MV compounding pads each column's E x E covariances by K, as MV
        # beamforming pads its L x L ones
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "8", "--pw-angles=-0.1,0,0.1"]) == 0
        capsys.readouterr()
        rc = run(["beamform", "--in", cube, "--out", str(tmp_path / "img"),
                  "--config", cube + ".config.txt", "--set", "bf.compound", "mv",
                  "--set", "bf.k", "100000000"])
        assert_config_error(rc, capsys, "bf.k")
        assert list(tmp_path.glob("img*")) == []

    @pytest.mark.parametrize("command,key,value", [
        ("simulate", "sim.fs_factor", "1e8"),     # auto sim.nt
        ("simulate", "sim.fs_factor", "1e9"),
        ("simulate", "sim.fs_factor", "1e300"),
        ("simulate", "sim.nt", "100000000000"),
        ("beamform", "bf.grid_nx", "100000000"),
        ("beamform", "bf.compound", "mean"),       # (C + E) x Rx x Rz
        ("ulm", "ulm.factor", "100000")])
    def test_config_sized_allocation_capped(self, tmp_path, capsys, command,
                                            key, value):
        # each exits 1 before allocating: numpy used to raise MemoryError or
        # "Maximum allowed size exceeded"
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        angles = ",".join(str(a) for a in np.linspace(-0.5, 0.5, 20))
        assert run(["simulate", "--field", field, "--out", cube,
                    "--set", "sim.num_elements", "8", "--pw-angles=" + angles]) == 0
        frames = tmp_path / "frames.uim1"
        uio.write_uim1_seq(frames, np.ones((2, 8, 8)))
        argv = {"simulate": ["simulate", "--field", field],
                # 8 x 200000 x 100 focused values fit the cap; compounding
                # the 20 angles' images adds 20 x 200000 x 100, and the sum
                # does not fit
                "beamform": ["beamform", "--in", cube, "--config",
                             cube + ".config.txt", "--set", "bf.grid_nx",
                             "200000", "--set", "bf.grid_nz", "100"],
                "ulm": ["ulm", "--frames", str(frames)]}[command]
        before = {p.name for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc, peak = traced_peak(
            run, argv + ["--out", str(tmp_path / "o"), "--set", key, value])
        assert_config_error(rc, capsys, key)
        assert {p.name for p in tmp_path.iterdir()} == before
        assert peak < 2 ** 25

    def test_tall_ulm_frame_capped(self, tmp_path, capsys):
        # one 2**20 x 1 frame: its 2**22 x 4 HR grid fits the cap, but the
        # (n, n) temporaries of the per-axis operators, n = 2**22, do not;
        # numpy used to raise MemoryError asking for 128 TiB
        frames = tmp_path / "tall.uim1"
        uio.write_uim1_seq(frames, np.ones((1, 2 ** 20, 1)))
        before = {p.name for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc, peak = traced_peak(run, ["ulm", "--frames", str(frames), "--method",
                                     "sparse", "--out", str(tmp_path / "o")])
        assert_config_error(rc, capsys, "ulm.factor")
        assert {p.name for p in tmp_path.iterdir()} == before
        assert peak < 2 ** 25

    def test_ulm_operator_cap_counts_the_build(self, tmp_path, capsys, monkeypatch):
        # one 64 x 1 frame at factor 4: n = 256, so n x n = 2**16 fits a cap
        # of 2**16, but the build's four n x n temporaries do not
        monkeypatch.setattr(cli, "MAX_ELEMENTS", 2 ** 16)
        frames = tmp_path / "f.uim1"
        uio.write_uim1_seq(frames, np.ones((1, 64, 1)))
        capsys.readouterr()
        rc = run(["ulm", "--frames", str(frames), "--method", "sparse",
                  "--factor", "4", "--out", str(tmp_path / "o")])
        assert_config_error(rc, capsys, "ulm.factor")
        assert not list(tmp_path.glob("o*"))

    def test_single_element_array_exit_1(self, tmp_path, capsys):
        field = write_field(tmp_path / "f.txt")
        rc = run(["simulate", "--field", field, "--out", str(tmp_path / "c.urf"),
                  "--set", "sim.num_elements", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sim.num_elements" in err
        assert not (tmp_path / "c.urf").exists()

    @pytest.mark.parametrize("nz", ["1", "2", "3"])
    def test_axial_grid_under_four_pixels_exit_1(self, tmp_path, capsys, nz):
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--set", "sim.num_elements", "8"]) == 0
        capsys.readouterr()
        out = tmp_path / "img"
        rc = run(["beamform", "--in", cube, "--out", str(out),
                  "--set", "sim.num_elements", "8", "--set", "bf.grid_nz", nz])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bf.grid_nz" in err
        assert list(tmp_path.glob("img*")) == []

    def test_auto_axial_grid_has_four_pixels(self, tmp_path):
        # an axial range under three quarter wavelengths still gets the
        # four samples that envelope detection needs
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--set", "sim.num_elements", "8"]) == 0
        assert run(["beamform", "--in", cube, "--out", str(tmp_path / "img"),
                    "--set", "sim.num_elements", "8",
                    "--set", "bf.grid_ax_min", "0.008",
                    "--set", "bf.grid_ax_max", "0.00801"]) == 0
        assert uio.read_uim1(tmp_path / "img.uim1").shape[1] == 4

    def test_all_zero_ulm_frame_no_detections(self, tmp_path):
        seq = tmp_path / "frames.uim1"
        uio.write_uim1_seq(seq, np.zeros((2, 6, 6)))
        assert run(["ulm", "--frames", str(seq), "--out", str(tmp_path / "u")]) == 0
        csv = (tmp_path / "u_detections.csv").read_text()
        assert csv == "frame,x,z,intensity\n"
        assert not np.any(uio.read_uim1(tmp_path / "u_density.uim1"))

    def test_all_zero_deconvolve_input_writes_zero(self, tmp_path):
        # the automatic lambda is 0 when A^H y = 0; x = 0 solves
        img, psf = tmp_path / "img.uim1", tmp_path / "psf.uim1"
        uio.write_uim1(img, np.zeros((8, 8)))
        uio.write_uim1(psf, np.ones((3, 3)) / 9.0)
        assert run(["deconvolve", "--in", str(img), "--psf", str(psf),
                    "--out", str(tmp_path / "dec")]) == 0
        out = uio.read_uim1(tmp_path / "dec.uim1")
        assert out.shape == (8, 8) and not np.any(out)

    def test_all_zero_clutter_input_writes_zero(self, tmp_path):
        # the automatic RPCA weights are 0, and a zero-weight solve stops at zero
        seq = tmp_path / "seq.uim1"
        uio.write_uim1_seq(seq, np.zeros((4, 3, 5)))
        assert run(["clutter", "--in", str(seq), "--method", "rpca",
                    "--out", str(tmp_path / "cl")]) == 0
        for part in ("tissue", "blood"):
            out = uio.read_uim1_seq(tmp_path / f"cl_{part}.uim1")
            assert out.shape == (4, 3, 5) and not np.any(out)

    def test_all_zero_recover_input_writes_zero(self, tmp_path):
        field = write_field(tmp_path / "f.txt", rows="0.0 0.008 0.0\n")
        cube = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(cube),
                    "--num-elements", "4", "--nt", "512"]) == 0
        bins = tmp_path / "bins.txt"
        bins.write_text("\n".join(str(b) for b in range(0, 512, 3)) + "\n")
        assert run(["recover", "--in", str(cube), "--bins", str(bins),
                    "--out", str(tmp_path / "rec")]) == 0
        out = uio.read_uim1(tmp_path / "rec.uim1")
        assert out.shape == (512, 1) and not np.any(out)

    def test_inverted_grid_exit_1(self, tmp_path, capsys):
        rc = run(["demo", "--out", str(tmp_path / "d"),
                  "--set", "demo.num_scatterers", "5",
                  "--set", "sim.num_elements", "8",
                  "--set", "bf.grid_ax_min", "0.03",
                  "--set", "bf.grid_ax_max", "0.02"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "bf.grid" in err

    def test_missing_input_exit_2(self, tmp_path):
        rc = run(["beamform", "--in", str(tmp_path / "nope.urf"),
                  "--out", str(tmp_path / "img")])
        assert rc == 2


#: Values outside most domains: non-finite, zero, negative, huge, any text.
ODD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1e300",
                     "-1e300", str(10 ** 30), ""]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126,
                          blacklist_characters="#"), max_size=12))


def cheapest_argv(key, tmp_path):
    """The cheapest subcommand that reads ``key``, on an input that does not
    exist; demo's output directory would go under a regular file instead."""
    missing, out = str(tmp_path / "missing"), str(tmp_path / "o")
    return {"sim": ["simulate", "--field", missing],
            "bf": ["beamform", "--in", missing],
            "sparse": ["deconvolve", "--in", missing, "--psf", missing],
            "clutter": ["clutter", "--in", missing],
            "ulm": ["ulm", "--frames", missing],
            "metrics": ["metrics", "--in", missing],
            }.get(key.split(".")[0], ["demo"]) + ["--out", out]


class TestConfigDomains:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(cli.CONFIG_SCHEMA)), value=ODD_VALUES)
    def test_any_value_is_config_error_or_reaches_input(self, tmp_path, capsys,
                                                        key, value):
        blocker = tmp_path / "o"   # demo cannot make its directory here
        blocker.write_text("")
        conf = tmp_path / "c.conf"
        # demo fills its own grid, the only one that holds its default cyst
        grid = "" if key.startswith(("bf.", "demo.")) else (
            "bf.grid_lat_min = -0.005\nbf.grid_lat_max = 0.005\n"
            "bf.grid_ax_min = 0.001\nbf.grid_ax_max = 0.01\n")
        conf.write_text(f"{grid}{key} = {value}\n")
        rc = run(cheapest_argv(key, tmp_path) + ["--config", str(conf)])
        err = capsys.readouterr().err
        assert rc in (1, 2), (key, value)
        if rc == 1:
            assert err.startswith("config error:") and key in err, (key, value, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.conf", "o"]


class TestSimulateBeamform:
    def test_chain_and_sidecar_round_trip(self, tmp_path):
        field = write_field(tmp_path / "f.txt")
        cube1 = tmp_path / "a.urf"
        assert run(["simulate", "--field", field, "--out", str(cube1),
                    "--seed", "3", "--noise-std", "0.01"]) == 0
        sidecar = str(cube1) + ".config.txt"
        cube2 = tmp_path / "b.urf"
        assert run(["simulate", "--field", field, "--out", str(cube2),
                    "--seed", "3", "--config", sidecar]) == 0
        assert cube1.read_bytes() == cube2.read_bytes()

        img = tmp_path / "img"
        assert run(["beamform", "--in", str(cube1), "--out", str(img),
                    "--method", "das"]) == 0
        assert (tmp_path / "img.uim1").exists()
        assert (tmp_path / "img.pgm").read_bytes().startswith(b"P5\n")

    def test_pgm_is_the_log_compressed_envelope(self, tmp_path):
        # each axial line of the UIM1 rf, through the dense-DFT analytic
        # signal and a numpy log compression, gives the PGM to one grey
        # level (the UIM1 rf is the float32 rounding of the CLI's)
        field = write_field(tmp_path / "f.txt",
                            "0.0 0.008 1.0\n-0.001 0.0095 -0.4\n")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "8"]) == 0
        dyn = 40.0
        assert run(["beamform", "--in", cube, "--out", str(tmp_path / "img"),
                    "--method", "das", "--set", "bf.grid_nx", "10",
                    "--set", "bf.grid_nz", "48", "--set", "bf.dyn_range", str(dyn)]) == 0
        rf = uio.read_uim1(tmp_path / "img.uim1")
        env = np.abs([analytic_direct(line) for line in rf])
        with np.errstate(divide="ignore"):
            db = np.clip(20.0 * np.log10(env / env.max()), -dyn, 0.0)
        expected = np.round((db + dyn) / dyn * 255.0)
        raw = (tmp_path / "img.pgm").read_bytes()
        header = f"P5\n{rf.shape[0]} {rf.shape[1]}\n255\n".encode("ascii")
        assert raw.startswith(header)
        pgm = np.frombuffer(raw[len(header):], np.uint8).reshape(rf.shape[::-1]).T
        assert np.max(np.abs(pgm - expected)) <= 1.0
        assert np.ptp(pgm) > 100   # the view spans the range, not one grey

    @pytest.mark.parametrize("scheme", ["pw", "sa"])
    def test_urf1_stores_the_whole_trace_sum(self, tmp_path, scheme):
        # echoes are evaluated only where float32 can see them: the cube's
        # float32 samples are the whole-trace sum's
        rng = np.random.default_rng(5)
        rows = np.column_stack([rng.uniform(-4e-3, 4e-3, 40),
                                rng.uniform(2e-3, 12e-3, 40),
                                rng.standard_normal(40)])
        field = write_field(tmp_path / "f.txt", "".join(
            f"{x!r} {z!r} {a!r}\n" for x, z, a in rows.tolist()))
        out = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(out),
                    "--seed", "3", "--set", "sim.scheme", scheme,
                    "--set", "sim.pw_angles", "0.1,-0.2,0.0"]) == 0
        cfg = PipelineConfig()
        cfg.load_file(str(out) + ".config.txt")
        cfg.parse()
        array = cli._sim_array(cfg)
        cube, f0 = uio.read_urf1(out, cli._events_from(cfg, array))
        pulse = PulseModel(f0, cfg["sim.bandwidth"], cfg["sim.amplitude"])
        ref = simulate_full_trace(array, cube.events,
                                  uio.read_scatterer_field(field), pulse,
                                  cfg["sim.v"], cube.num_samples)
        assert np.any(ref)
        assert_same_float32(cube.samples, ref)

    def test_sa_das_reciprocal_focus_keeps_bytes(self, tmp_path, monkeypatch):
        # an SA cube survives the float32 URF1 round trip symmetric, so DAS
        # takes the reciprocal focus; its files match the event loop's
        field = write_field(tmp_path / "f.txt",
                            "-0.001 0.008 1.0\n0.0005 0.009 -0.6\n")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "8", "--set", "sim.scheme", "sa"]) == 0
        real, taken = tof._reciprocal, []
        monkeypatch.setattr(tof, "_reciprocal",
                            lambda *a: taken.append(real(*a)) or taken[-1])
        outputs = {}
        for path in ("reciprocal", "loop"):
            (tmp_path / path).mkdir()
            assert run(["beamform", "--in", cube, "--method", "das",
                        "--out", str(tmp_path / path / "img"),
                        "--config", cube + ".config.txt",
                        "--set", "bf.grid_nx", "9"]) == 0
            outputs[path] = file_map(tmp_path / path)
            monkeypatch.setattr(tof, "_reciprocal", lambda *a: False)
        assert taken == [True]
        assert outputs["reciprocal"] == outputs["loop"]

    def test_compounding_follows_method_k_and_eps(self, tmp_path):
        # every event is beamformed by bf.method, and MV compounding weighs
        # the events with bf.k and bf.eps
        field = write_field(tmp_path / "f.txt",
                            "-0.001 0.008 1.0\n0.0005 0.009 -0.6\n")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "8", "--pw-angles=-0.1,0,0.1",
                    "--noise-std", "0.01"]) == 0
        variants = {"default": [], "mv": ["--method", "mv"],
                    "k": ["--set", "bf.k", "0"], "eps": ["--set", "bf.eps", "0.3"]}
        for mode in ("mean", "mv"):
            images = {}
            for name, extra in variants.items():
                out = tmp_path / f"{mode}_{name}"
                assert run(["beamform", "--in", cube, "--out", str(out),
                            "--config", cube + ".config.txt",
                            "--set", "bf.compound", mode, "--set", "bf.grid_nx", "9",
                            "--set", "bf.grid_nz", "16"] + extra) == 0
                images[name] = (tmp_path / f"{mode}_{name}.uim1").read_bytes()
            assert images["mv"] != images["default"]
            # K and eps reach DAS images only through MV compounding
            for name in ("k", "eps"):
                assert (images[name] != images["default"]) is (mode == "mv"), name

    def test_compounding_holds_one_event_tensor(self, tmp_path):
        # 16 SA events on 16 channels: the (E, C, Rx, Rz) float64 stack of
        # every event's focused tensor would be 9.4 MB, one event's 0.6 MB;
        # the whole run peaks near 4.4 MB
        field = write_field(tmp_path / "f.txt")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "16", "--set", "sim.scheme", "sa"]) == 0
        rc, peak = traced_peak(run, [
            "beamform", "--in", cube, "--out", str(tmp_path / "img"),
            "--config", cube + ".config.txt", "--set", "bf.compound", "mean",
            "--set", "bf.grid_nx", "48", "--set", "bf.grid_nz", "96"])
        assert rc == 0
        assert peak < 16 * 16 * 48 * 96 * 8, peak

    def test_beamform_all_methods(self, tmp_path):
        field = write_field(tmp_path / "f.txt")
        cube = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(cube),
                    "--num-elements", "8"]) == 0
        for method in ("das", "mv", "wiener", "cf", "imap"):
            rc = run(["beamform", "--in", str(cube), "--out",
                      str(tmp_path / method), "--method", method,
                      "--set", "bf.grid_nx", "9", "--set", "bf.grid_nz", "12"])
            assert rc == 0, method
            assert uio.read_uim1(tmp_path / f"{method}.uim1").shape == (9, 12)


class TestFloat32CubeKeepsBytes:
    """``beamform`` and ``recover`` compute from the float32 samples that a
    URF1 read keeps as they do from that cube widened to float64 at read:
    every output byte is the same."""

    CASES = {
        # plane waves compounded one event's focus at a time (event=e)
        "pw_event": (["--pw-angles=-0.1,0,0.1", "--noise-std", "0.01"],
                     ["beamform", "--set", "bf.compound", "mean"]),
        # plane waves summed over events, the event loop, through MV
        "pw_summed": (["--pw-angles=-0.1,0,0.1", "--noise-std", "0.01"],
                      ["beamform", "--method", "mv"]),
        # a noise-free SA set: the reciprocal focus
        "sa": (["--set", "sim.scheme", "sa"], ["beamform"]),
        "recover": (["--nt", "256"], ["recover", "--event", "0",
                                      "--channel", "2"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_bytes_as_widened_cube(self, tmp_path, monkeypatch, case):
        sim, command = self.CASES[case]
        field = write_field(tmp_path / "f.txt",
                            "-0.001 0.003 1.0\n0.0005 0.004 -0.6\n")
        cube = str(tmp_path / "c.urf")
        assert run(["simulate", "--field", field, "--out", cube,
                    "--num-elements", "6"] + sim) == 0
        bins = tmp_path / "bins.txt"
        bins.write_text("\n".join(map(str, range(0, 256, 3))) + "\n")
        extra = (["--bins", str(bins)] if command[0] == "recover" else
                 ["--set", "bf.grid_nx", "9", "--set", "bf.grid_nz", "16"])
        read, dtypes = uio.read_urf1, []

        def widened(path, events):
            narrow, f0 = read(path, events)
            dtypes.append(narrow.samples.dtype)
            return core.RfDataCube(narrow.samples.astype(np.float64), narrow.fs,
                                   narrow.speed_of_sound, narrow.events), f0

        outputs = {}
        for name in ("float32", "float64"):
            (tmp_path / name).mkdir()
            assert run(command + ["--in", cube, "--config", cube + ".config.txt",
                                  "--out", str(tmp_path / name / "out")]
                       + extra) == 0
            outputs[name] = file_map(tmp_path / name)
            monkeypatch.setattr(uio, "read_urf1", widened)
        assert dtypes == [np.float32]
        assert outputs["float32"] == outputs["float64"]


class TestNegativePlaneWaveDelays:
    def test_demo_with_pixels_reached_before_t0(self, tmp_path):
        # steered 1.2 rad, the plane wave reaches the far left of this grid
        # before it crosses the array origin at t = 0
        out = tmp_path / "d"
        conf = ["--set", "sim.pw_angles", "1.2",
                "--set", "bf.grid_lat_min", "-0.03",
                "--set", "bf.grid_ax_min", "0.0001",
                "--set", "demo.num_scatterers", "5"]
        assert run(["demo", "--out", str(out)] + conf) == 0
        cfg = PipelineConfig()
        cfg.load_file(out / "demo.config.txt")
        cfg.parse()
        e_count, c_count, nt, fs, v, f0 = uio.read_urf1_header(out / "cube.urf")
        array = cli._array_from(cfg, c_count, f0, v, fs)
        cube, _ = uio.read_urf1(out / "cube.urf", cli._events_from(cfg, array))
        grid = cli._grid_from(cfg, array, nt, v)
        delays = tof.compute_delays(array, cube.events, grid, v)
        negative = delays.event(0) < 0
        assert np.any(negative)
        focused = tof.focus(cube, delays, grid)
        assert not np.any(focused.values[negative])
        # the demo's DAS image is this focusing (URF1 stores float32 samples)
        das = np.real(bf.das(focused, ApodizationWindow(RECTANGULAR, c_count)).rf)
        written = uio.read_uim1(out / "das.uim1")
        assert np.max(np.abs(written - das)) <= 1e-5 * np.max(np.abs(das))


class TestRecoverDeconvolveClutterUlm:
    def test_recover_subcommand(self, tmp_path):
        field = write_field(tmp_path / "f.txt")
        cube = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(cube),
                    "--num-elements", "4", "--nt", "512"]) == 0
        bins = tmp_path / "bins.txt"
        rng = np.random.default_rng(0)
        chosen = np.sort(rng.choice(512, 170, replace=False))
        bins.write_text("# bins\n" + "\n".join(str(b) for b in chosen) + "\n")
        rc = run(["recover", "--in", str(cube), "--bins", str(bins),
                  "--out", str(tmp_path / "rec")])
        assert rc == 0
        assert uio.read_uim1(tmp_path / "rec.uim1").shape == (512, 1)

    def test_deconvolve_subcommand(self, tmp_path):
        rng = np.random.default_rng(1)
        img = tmp_path / "img.uim1"
        psf = tmp_path / "psf.uim1"
        uio.write_uim1(img, rng.random((12, 12)))
        uio.write_uim1(psf, np.ones((3, 3)) / 9.0)
        rc = run(["deconvolve", "--in", str(img), "--psf", str(psf),
                  "--out", str(tmp_path / "dec")])
        assert rc == 0
        assert uio.read_uim1(tmp_path / "dec.uim1").shape == (12, 12)

    def test_clutter_subcommand(self, tmp_path):
        rng = np.random.default_rng(2)
        base = np.outer(rng.random(25), rng.random(8)).reshape(5, 5, 8)
        frames = np.transpose(base, (2, 0, 1)) + 0.01 * rng.random((8, 5, 5))
        seq = tmp_path / "seq.uim1"
        uio.write_uim1_seq(seq, frames)
        rc = run(["clutter", "--in", str(seq), "--method", "rpca",
                  "--out", str(tmp_path / "cl")])
        assert rc == 0
        tis = uio.read_uim1_seq(tmp_path / "cl_tissue.uim1")
        assert tis.shape == (8, 5, 5)
        assert (tmp_path / "cl_doppler.pgm").exists()

    def test_clutter_cap_hit_warns_on_stderr_only(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        seq = tmp_path / "seq.uim1"
        uio.write_uim1_seq(seq, rng.random((8, 5, 5)))
        out = str(tmp_path / "cl")
        assert run(["clutter", "--in", str(seq), "--method", "rpca", "--out", out,
                    "--set", "clutter.iters", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"wrote {out}_tissue/_blood/.uim1 and _doppler.pgm "
                                f"(rpca, 3 iterations)\n")
        assert captured.err == \
            "warning: RPCA used all clutter.iters = 3 iterations\n"
        # the files hold the capped split, as the library returns it
        y = cl.build_casorati(uio.read_uim1_seq(seq))
        lam1 = cl.default_lambda1(y)
        tissue, blood, iters = cl.rpca(y, lam1, 0.5 * lam1, max_iters=3)
        assert iters == 3
        for name, part in (("tissue", tissue), ("blood", blood)):
            uio.write_uim1_seq(tmp_path / "want.uim1", cl.unbuild_casorati(part, (5, 5)))
            assert (tmp_path / f"cl_{name}.uim1").read_bytes() == \
                (tmp_path / "want.uim1").read_bytes()
        # a split that converges within its cap warns of nothing
        assert run(["clutter", "--in", str(seq), "--method", "rpca", "--out", out]) == 0
        assert capsys.readouterr().err == ""

    def test_ulm_subcommand(self, tmp_path):
        from usproc.ulm import simulate_bubbles
        frames = simulate_bubbles((32, 32), 3, 3.0, 2.0, 4, 30.0, 4)
        seq = tmp_path / "frames.uim1"
        uio.write_uim1_seq(seq, np.stack([f.image for f in frames]))
        rc = run(["ulm", "--frames", str(seq), "--out", str(tmp_path / "u"),
                  "--method", "sparse"])
        assert rc == 0
        density = uio.read_uim1(tmp_path / "u_density.uim1")
        assert density.shape == (32, 32)
        csv = (tmp_path / "u_detections.csv").read_text()
        assert csv.startswith("frame,x,z,intensity")

    def test_recover_empty_bins_gives_zeros(self, tmp_path):
        # no bins: the model is zero, of norm 0, and so is its solution
        field = write_field(tmp_path / "f.txt", "0.0 0.003 1.0\n")
        cube = tmp_path / "c.urf"
        assert run(["simulate", "--field", field, "--out", str(cube),
                    "--num-elements", "2", "--nt", "256"]) == 0
        bins = tmp_path / "bins.txt"
        bins.write_text("# no bins\n")
        assert run(["recover", "--in", str(cube), "--bins", str(bins),
                    "--out", str(tmp_path / "rec")]) == 0
        x = uio.read_uim1(tmp_path / "rec.uim1")
        assert x.shape == (256, 1) and not np.any(x)

    @pytest.mark.parametrize("command", ["recover", "deconvolve", "ulm"])
    def test_solve_states_model_norm(self, tmp_path, monkeypatch, command):
        # every solve takes its norm from its model in closed form: exact
        # for a scanline and for ULM's Gaussian PSF, a bound within 1% of
        # the norm for a deconvolution of a 32 x 32 image by a 3 x 3 box
        from usproc import sparse, ulm
        seen = []

        def recording(solve):
            def ista(problem):
                seen.append(problem)
                return solve(problem)
            return ista

        monkeypatch.setattr(sparse, "ista", recording(sparse.ista))
        monkeypatch.setattr(ulm, "ista", recording(ulm.ista))
        out = str(tmp_path / "out")
        if command == "recover":
            cube = tmp_path / "c.urf"
            field = write_field(tmp_path / "f.txt", "0.0 0.003 1.0\n")
            assert run(["simulate", "--field", field, "--out", str(cube),
                        "--num-elements", "2", "--nt", "256"]) == 0
            bins = tmp_path / "bins.txt"
            chosen = np.random.default_rng(0).choice(256, 90, replace=False)
            bins.write_text("\n".join(str(b) for b in chosen) + "\n")
            argv = ["recover", "--in", str(cube), "--bins", str(bins)]
        elif command == "deconvolve":
            img, psf = tmp_path / "img.uim1", tmp_path / "psf.uim1"
            uio.write_uim1(img, np.random.default_rng(1).random((32, 32)))
            uio.write_uim1(psf, np.ones((3, 3)) / 9.0)
            argv = ["deconvolve", "--in", str(img), "--psf", str(psf)]
        else:
            frames = ulm.simulate_bubbles((32, 32), 2, 3.0, 2.0, 4, 30.0, 4)
            seq = tmp_path / "frames.uim1"
            uio.write_uim1_seq(seq, np.stack([f.image for f in frames]))
            argv = ["ulm", "--frames", str(seq), "--method", "sparse"]
        assert run(argv + ["--out", out, "--set", "sparse.max_iters", "50",
                           "--set", "ulm.max_iters", "50"]) == 0
        assert seen
        for problem in seen:
            dim = np.asarray(problem.adjoint(np.atleast_2d(problem.y)[0])).size
            dense = dense_norm(problem.forward, dim)
            if command == "deconvolve":
                assert dense <= problem.norm <= 1.01 * dense
            else:
                assert problem.norm == pytest.approx(dense, rel=1e-12)

    @staticmethod
    def bubble_sequence(path, zero_frame):
        from usproc.ulm import simulate_bubbles
        frames = np.stack([f.image for f in
                           simulate_bubbles((32, 32), 5, 4.0, 2.0, 4, 30.0, 9)])
        if zero_frame:
            frames[2] = 0.0
        uio.write_uim1_seq(path, frames)
        return frames

    def test_ulm_frame_blocks_byte_identical(self, tmp_path, monkeypatch):
        # one frame per batch or every frame in one batch: the same bytes;
        # at tol 1e-3 the frames of a batch stop at different iterations
        seq = tmp_path / "frames.uim1"
        self.bubble_sequence(seq, zero_frame=True)
        outs = {}
        for block in (1, 2 ** 40):
            monkeypatch.setattr(core, "BLOCK_ELEMENTS", block)
            prefix = tmp_path / f"b{block}"
            assert run(["ulm", "--frames", str(seq), "--out", str(prefix),
                        "--method", "sparse", "--set", "ulm.max_iters", "300",
                        "--set", "ulm.tol", "1e-3"]) == 0
            outs[block] = [(tmp_path / f"b{block}{suffix}").read_bytes()
                           for suffix in ("_density.uim1", "_density.pgm",
                                          "_detections.csv")]
        assert outs[1] == outs[2 ** 40]
        assert outs[1][2].count(b"\r\n") > 3   # some detections written

    def test_ulm_builds_one_model_per_run(self, tmp_path, monkeypatch):
        # one block per frame: the blocks share the model built before them
        from usproc import ulm
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 1)
        built = []
        model = ulm.LocalizationModel

        def counting_model(*args):
            built.append(args[0])
            return model(*args)

        monkeypatch.setattr(ulm, "LocalizationModel", counting_model)
        seq = tmp_path / "frames.uim1"
        assert len(self.bubble_sequence(seq, zero_frame=False)) == 5
        assert run(["ulm", "--frames", str(seq), "--out", str(tmp_path / "u"),
                    "--method", "sparse", "--set", "ulm.max_iters", "20"]) == 0
        assert built == [(8, 8)]
        assert run(["ulm", "--frames", str(seq), "--out", str(tmp_path / "c"),
                    "--method", "centroid"]) == 0
        assert built == [(8, 8)]

    def test_ulm_batch_equals_frame_by_frame(self, tmp_path, monkeypatch):
        # a zero frame between bubble frames, all in one batch, against the
        # library's one-frame solves written in the CLI's CSV format
        from usproc import ulm
        monkeypatch.setattr(core, "BLOCK_ELEMENTS", 2 ** 40)
        seq = tmp_path / "frames.uim1"
        self.bubble_sequence(seq, zero_frame=True)
        assert run(["ulm", "--frames", str(seq), "--out", str(tmp_path / "u"),
                    "--method", "sparse", "--set", "ulm.max_iters", "200"]) == 0
        frames = uio.read_uim1_seq(seq)   # the float32 values the CLI reads
        model = ulm.LocalizationModel(frames.shape[1:], ulm.gaussian_psf(2.0), 4)
        rows = ["frame,x,z,intensity"]
        for t, frame in enumerate(frames):
            lam = 0.05 * ulm.max_correlation(frame, model)
            hr = ulm.localize_sparse(frame, model, lam, max_iters=200, tol=1e-5)
            rows += [f"{t},{float(x)!r},{float(z)!r},{float(i)!r}"
                     for x, z, i in ulm.detect_centroids(hr, 0.10, 1)]
        assert (tmp_path / "u_detections.csv").read_bytes() == \
            "".join(r + "\r\n" for r in rows).encode("ascii")
        assert not any(r.startswith("2,") for r in rows)

    @pytest.mark.parametrize("method", ["centroid", "sparse"])
    def test_ulm_huge_window_radius(self, tmp_path, method):
        # every radius >= 1 is in the key's domain; one past int64 merges and
        # windows as a frame-sized radius does
        seq = tmp_path / "frames.uim1"
        self.bubble_sequence(seq, zero_frame=True)
        outs = {}
        for radius in ("1000000", "100000000000000000000"):
            prefix = tmp_path / f"r{len(radius)}"
            assert run(["ulm", "--frames", str(seq), "--out", str(prefix),
                        "--method", method, "--set", "ulm.max_iters", "50",
                        "--set", "ulm.window_radius", radius]) == 0
            outs[radius] = [(tmp_path / f"r{len(radius)}{suffix}").read_bytes()
                            for suffix in ("_density.uim1", "_density.pgm",
                                           "_detections.csv")]
        assert outs["1000000"] == outs["100000000000000000000"]
        assert outs["1000000"][2].count(b"\r\n") > 3   # some detections written

    def test_ulm_threads_byte_identical(self, tmp_path):
        # --threads is accepted and changes nothing
        from usproc.ulm import simulate_bubbles
        frames = simulate_bubbles((32, 32), 4, 3.0, 2.0, 4, 30.0, 8)
        seq = tmp_path / "frames.uim1"
        uio.write_uim1_seq(seq, np.stack([f.image for f in frames]))
        outs = {}
        for threads in ("1", "3"):
            prefix = tmp_path / f"t{threads}"
            assert run(["ulm", "--frames", str(seq), "--out", str(prefix),
                        "--threads", threads, "--set", "ulm.max_iters", "200"]) == 0
            outs[threads] = [(tmp_path / f"t{threads}{suffix}").read_bytes()
                             for suffix in ("_density.uim1", "_detections.csv",
                                            ".config.txt")]
        assert outs["1"] == outs["3"]
        assert outs["1"][1].count(b"\r\n") > 1   # some detections written

    def test_ulm_blas_threads_byte_identical(self, tmp_path):
        # the sparse solve runs through BLAS matmul; at 256 x 256 HR its
        # products are large enough for OpenBLAS to split them over threads
        from usproc.ulm import simulate_bubbles
        frames = simulate_bubbles((256, 256), 2, 20.0, 2.0, 4, 30.0, 2)
        seq = tmp_path / "frames.uim1"
        uio.write_uim1_seq(seq, np.stack([f.image for f in frames]))
        outs = {}
        for threads in ("1", "2"):
            env = src_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            prefix = tmp_path / f"b{threads}"
            subprocess.run([sys.executable, "-c",
                            "from usproc.cli import main; main()", "ulm",
                            "--frames", str(seq), "--out", str(prefix),
                            "--method", "sparse",
                            "--set", "ulm.max_iters", "100"],
                           env=env, check=True, capture_output=True,
                           timeout=300)
            outs[threads] = [(tmp_path / f"b{threads}{suffix}").read_bytes()
                             for suffix in ("_density.uim1", "_density.pgm",
                                            "_detections.csv")]
        assert outs["1"] == outs["2"]
        assert outs["1"][2].count(b"\r\n") > 1   # some detections written

    def test_metrics_subcommand(self, tmp_path):
        rng = np.random.default_rng(3)
        img = tmp_path / "img.uim1"
        uio.write_uim1(img, rng.random((16, 32)) + 0.2)
        rc = run(["metrics", "--in", str(img), "--out", str(tmp_path / "m.csv"),
                  "--region-a=-0.004,0.001,0.0,0.005",
                  "--region-b=0.0,0.001,0.004,0.005",
                  "--set", "bf.grid_lat_min", "-0.005",
                  "--set", "bf.grid_lat_max", "0.005",
                  "--set", "bf.grid_ax_min", "0.001",
                  "--set", "bf.grid_ax_max", "0.01"])
        assert rc == 0
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines[0] == "metric,name,value"
        assert lines[1].startswith("contrast_db,")


def test_demo_detects_each_envelope_once(tmp_path, monkeypatch):
    # the metrics take the envelope that the PGM's log view computed
    calls = []
    detect = tof.detect_envelope
    monkeypatch.setattr(tof, "detect_envelope",
                        lambda image: calls.append(1) or detect(image))
    assert run(["demo", "--out", str(tmp_path / "demo"),
                "--set", "demo.num_scatterers", "20",
                "--set", "sim.num_elements", "8",
                "--set", "bf.grid_nx", "8", "--set", "bf.grid_nz", "24"]) == 0
    assert len(calls) == 4    # das, mv, cf, imap


def test_real_pipelines_factor_in_float64(tmp_path, monkeypatch):
    # RPCA's factorizations (default_lambda1's SVD, then one Gram
    # eigendecomposition per iteration) and the Capon Cholesky solves of real
    # data must run in float64: a single missed cast silently makes every
    # later call complex while the rounded outputs keep their bytes, so only
    # the calls show it
    seen = {"svd": [], "eigh": [], "cholesky": []}

    def spy(real, calls):
        def call(a, *args, **kwargs):
            calls.append(np.asarray(a).dtype)
            return real(a, *args, **kwargs)
        return call

    for name, calls in seen.items():
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name), calls))
    rng = np.random.default_rng(4)
    frames = np.outer(rng.random(24), np.ones(6)).T.reshape(6, 4, 6) \
        + 0.1 * rng.random((6, 4, 6))
    uio.write_uim1_seq(tmp_path / "s.uim1", frames)
    assert run(["clutter", "--in", str(tmp_path / "s.uim1"), "--method", "rpca",
                "--out", str(tmp_path / "cl")]) == 0
    assert run(["demo", "--out", str(tmp_path / "demo"),
                "--set", "demo.num_scatterers", "20",
                "--set", "sim.num_elements", "8",
                "--set", "bf.grid_nx", "8", "--set", "bf.grid_nz", "24"]) == 0
    assert len(seen["svd"]) == 1 and len(seen["eigh"]) > 2, seen
    assert len(seen["cholesky"]) > 2, seen
    assert set(seen["svd"]) == set(seen["eigh"]) == set(seen["cholesky"]) \
        == {np.dtype(np.float64)}


@pytest.mark.slow
class TestDemoDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        conf = ["--set", "demo.num_scatterers", "60",
                "--set", "sim.num_elements", "16",
                "--set", "bf.grid_nx", "24", "--set", "bf.grid_nz", "30"]
        d1, d2, d3 = (tmp_path / n for n in ("d1", "d2", "d3"))
        assert run(["demo", "--out", str(d1), "--seed", "7"] + conf) == 0
        assert run(["demo", "--out", str(d2), "--seed", "7"] + conf) == 0
        assert run(["demo", "--out", str(d3), "--seed", "7", "--threads", "4"]
                   + conf) == 0
        m1, m2, m3 = file_map(d1), file_map(d2), file_map(d3)
        assert list(m1) == list(m2) == list(m3)
        for name in m1:
            assert m1[name] == m2[name], name
            assert m1[name] == m3[name], name

    def test_different_seed_changes_outputs(self, tmp_path):
        conf = ["--set", "demo.num_scatterers", "40",
                "--set", "sim.num_elements", "8",
                "--set", "bf.grid_nx", "12", "--set", "bf.grid_nz", "16"]
        d1, d2 = tmp_path / "s7", tmp_path / "s8"
        assert run(["demo", "--out", str(d1), "--seed", "7"] + conf) == 0
        assert run(["demo", "--out", str(d2), "--seed", "8"] + conf) == 0
        assert file_map(d1)["cube.urf"] != file_map(d2)["cube.urf"]
