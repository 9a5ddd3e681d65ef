"""CLI pipelines: exit codes, reproducibility, config round-trips, formats."""

import struct

import numpy as np
import pytest

from usproc import beamform as bf
from usproc import cli
from usproc import io as uio
from usproc import tof
from usproc.cli import PipelineConfig, run
from usproc.core import RECTANGULAR, ApodizationWindow
from usproc.errors import ConfigError


def write_field(path, rows="0.0 0.008 1.0\n"):
    path.write_text("# test field\n" + rows)
    return str(path)


def file_map(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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
        assert cfg.get_float("sim.f0") == 6e6
        assert cfg.get_str("bf.method") == "mv"

    def test_every_key_has_default_and_help(self):
        from usproc.cli import CONFIG_DEFAULTS
        for key, (default, help_text) in CONFIG_DEFAULTS.items():
            assert isinstance(default, str)
            assert help_text


class TestExitCodes:
    def test_unknown_flag_exit_1_names_flag(self, capsys):
        rc = run(["simulate", "--field", "x", "--out", "y", "--bogus-flag"])
        assert rc == 1
        assert "--bogus-flag" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        field = write_field(tmp_path / "f.txt")
        rc = run(["simulate", "--field", field, "--out", str(tmp_path / "o.urf"),
                  "--set", "sim.bogus", "1"])
        assert rc == 1
        assert "sim.bogus" in capsys.readouterr().err

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
        e_count, c_count, nt, fs, v, f0 = uio.read_urf1_header(out / "cube.urf")
        array = cli._array_from(cfg, c_count, f0, v, fs)
        cube, _ = uio.read_urf1(out / "cube.urf", cli._events_from(cfg, array))
        grid = cli._grid_from(cfg, array, nt, v)
        delays = tof.compute_delays(array, cube.events, grid, v)
        negative = delays.delays[0] < 0
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

    def test_ulm_threads_byte_identical(self, tmp_path):
        # one step is computed before the frame pool and shared by all
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
