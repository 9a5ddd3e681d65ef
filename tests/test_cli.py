"""CLI pipelines: exit codes, reproducibility, config round-trips, formats."""

import struct

import numpy as np
import pytest

from usproc import io as uio
from usproc.cli import PipelineConfig, run
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
