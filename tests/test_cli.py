import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qetkd import cli
from qetkd.cli import main, sweep_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestSweepSyntax:
    def test_inclusive_grid(self):
        grid = sweep_values("0:5:11")
        assert grid[0] == 0.0 and grid[-1] == 5.0 and len(grid) == 11

    def test_malformed_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            sweep_values("0..5")


class TestGround:
    def test_decoupled_chain(self, capsys):
        code, out, _ = run_cli(capsys, "ground", "--model", "chain3", "--J", "0")
        assert code == 0
        assert "gap=2.000000" in out

    def test_two_site_energy_six_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "ground", "--model", "two-site",
                               "--k", "1", "--h", "1")
        assert code == 0
        assert "ground_energy=-2.828427" in out

    def test_gap_sweep_strictly_decreasing(self, tmp_path, capsys):
        out_path = tmp_path / "gaps.csv"
        code, _, _ = run_cli(capsys, "ground", "--model", "chain3",
                             "--sweep-J", "0:5:26", "--out", str(out_path))
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["J", "gap"]
        gaps = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_degenerate_coupling_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "ground", "--model", "chain3", "--J", "2e6")
        assert code == 3
        assert "degenerate" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ground", "--model", "pentagon"])
        assert exc.value.code == 2


class TestQet:
    def test_identity_rule_dips_negative(self, tmp_path, capsys):
        out_path = tmp_path / "qet.csv"
        code, _, _ = run_cli(capsys, "qet", "--model", "chain3", "--basis", "x",
                             "--sweep-J", "0:4:17", "--out", str(out_path))
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["J", "E_A", "E_B"]
        e_b = [float(r[2]) for r in rows]
        assert min(e_b) < 0
        assert e_b[0] == 0.0  # J = 0 row: no angle, no teleported energy

    def test_flip_rule_peaks_positive(self, tmp_path, capsys):
        out_path = tmp_path / "flip.csv"
        code, _, _ = run_cli(capsys, "qet", "--model", "chain3", "--basis", "x",
                             "--rule", "flip", "--sweep-J", "0:4:17",
                             "--out", str(out_path))
        assert code == 0
        _, rows = read_csv(out_path)
        assert max(float(r[2]) for r in rows) > 0

    def test_random_basis_is_mean_of_x_and_y(self, tmp_path, capsys):
        grids = {}
        for basis in ("x", "y", "random"):
            out_path = tmp_path / f"{basis}.csv"
            code, _, _ = run_cli(capsys, "qet", "--model", "chain3",
                                 "--basis", basis, "--sweep-J", "0.5:3:6",
                                 "--out", str(out_path))
            assert code == 0
            _, rows = read_csv(out_path)
            grids[basis] = np.array([float(r[2]) for r in rows])
        assert np.allclose(grids["random"], 0.5 * (grids["x"] + grids["y"]),
                           atol=1e-10)

    def test_sender_energy_positive(self, tmp_path, capsys):
        out_path = tmp_path / "ea.csv"
        run_cli(capsys, "qet", "--model", "chain3", "--basis", "x",
                "--sweep-J", "0.5:3:6", "--out", str(out_path))
        _, rows = read_csv(out_path)
        assert all(float(r[1]) > 0 for r in rows)

    def test_star_model_first_party(self, tmp_path, capsys):
        out_path = tmp_path / "star.csv"
        code, _, _ = run_cli(capsys, "qet", "--model", "star", "--N", "2",
                             "--J", "1", "--out", str(out_path))
        assert code == 0
        _, rows = read_csv(out_path)
        assert float(rows[0][2]) < 0


class TestNoise:
    def test_classical_star_threshold(self, tmp_path, capsys):
        out_path = tmp_path / "cls.csv"
        code, out, _ = run_cli(capsys, "noise", "--family", "classical",
                               "--model", "star", "--N", "2", "--J", "1",
                               "--grid", "0:1:41", "--out", str(out_path))
        assert code == 0
        assert "sign change at p* = 0.25" in out

    def test_depolarize_reports_no_crossing(self, tmp_path, capsys):
        out_path = tmp_path / "dep.csv"
        code, out, _ = run_cli(capsys, "noise", "--family", "depolarize",
                               "--model", "chain3", "--J", "1",
                               "--grid", "0:0.9:10", "--out", str(out_path))
        assert code == 0
        assert "no sign change" in out
        header, rows = read_csv(out_path)
        assert header == ["family", "J", "p", "E_A", "E_B"]

    @pytest.mark.parametrize("model", [
        ("--model", "chain3"),
        ("--model", "star", "--N", "6", "--J", "1"),
    ])
    def test_depolarize_default_grid_reports_no_crossing(self, tmp_path, capsys, model):
        # the default grid ends at p = 1, where E_B reaches zero: a zero
        # (or its rounding residue) is not a sign change
        out_path = tmp_path / "dep.csv"
        code, out, _ = run_cli(capsys, "noise", "--family", "depolarize", *model,
                               "--out", str(out_path))
        assert code == 0
        assert "no sign change" in out
        _, rows = read_csv(out_path)
        assert len(rows) == 101
        assert float(rows[-1][4]) == pytest.approx(0.0, abs=1e-12)

    def test_descending_grid_finds_the_ascending_crossing(self, capsys):
        crossings = []
        for grid in ("0:1:21", "1:0:21"):
            code, out, _ = run_cli(capsys, "noise", "--family", "bitflip", "--model", "star",
                                   "--N", "6", "--J", "1", "--grid", grid)
            assert code == 0
            crossings.append(float(out.splitlines()[-1].rsplit("=", 1)[1]))
        assert crossings[1] == crossings[0]

    def test_sender_site_bitflip_flat(self, tmp_path, capsys):
        out_path = tmp_path / "flat.csv"
        code, _, _ = run_cli(capsys, "noise", "--family", "bitflip",
                             "--site", "alice", "--model", "chain3", "--J", "1",
                             "--grid", "0:1:11", "--out", str(out_path))
        assert code == 0
        _, rows = read_csv(out_path)
        e_b = [float(r[4]) for r in rows]
        assert max(e_b) - min(e_b) <= 1e-10


def _scan_cases():
    families = ("classical", "depolarize", "bitflip", "phaseflip", "excited-mix",
                "excited-sup")
    models = {"chain3": ("--model", "chain3"),
              "star6": ("--model", "star", "--N", "6", "--J", "1")}
    cases = {f"{m}-{f}": ("--family", f, *flags) for m, flags in models.items()
             for f in families}
    cases["chain3-excited-sup-alpha"] = ("--family", "excited-sup", "--model", "chain3",
                                         "--alpha", "0.7")
    cases["chain3-bitflip-alice"] = ("--family", "bitflip", "--model", "chain3",
                                     "--site", "alice", "--grid", "0:0.3:57")
    return cases


# name: SHA-256 of the CSV, stdout and exit code of a ``noise`` run.  The
# digests pin the bytes written by a scan that evaluated its grid point by point;
# the two star6 excited digests, those of marginals read off the block vectors
# (three cells each moved by one unit in their last digit, none away from its
# 40-digit value by more than that; tests/test_precision.py holds them), and
# of the p* = 0.3431 that the exact crossing 0.34312840 prints.
SCAN_DIGESTS = {
    "chain3-classical": "608131068bb8ccb81b220b41a2d65e66bca4ef3570ca24736a347e04ce63e1a5",
    "chain3-depolarize": "11a574f3439a1d7c86de82ff39652b21d3d9a0409e4f01f6779b58834749f433",
    "chain3-bitflip": "09ac604c51d1d647ab710706f816999141ca45957053b654cf3a57018501a366",
    "chain3-phaseflip": "55a35e99e94981e77959f12376c0e76f6d0cb08157e0126d175a0ad9ba6636fc",
    "chain3-excited-mix": "c34f9dab80e96ec0de04565d54dac643112aa9c3cdeeeb62e2f77a029222bfa3",
    "chain3-excited-sup": "1bbb5bf9a8c7e41cb775a79cccf92fed6f85c82fccfa6cfbcd0d534af3c72592",
    "star6-classical": "22e2c6fa38c854d806a934d646c3b24af72585282e15ffbaf2ceda40cac16157",
    "star6-depolarize": "09950209c94d0feb5d54f464ab8469acfc5b4865cb07d9acf651da071ac68e1f",
    "star6-bitflip": "2b0d098f139349181950eabe35723298bdcb1c3aa8f0c27d5de3d549f65221f4",
    "star6-phaseflip": "f2127156f32ae7a51a59a4f8fcf9aa587e0523d6051455e5a8b5ecc7aeff409c",
    "star6-excited-mix": "07465f4d3808ab06cb14e8fdc76785bbec22c51cd7c18e06e90c45fbb540f70a",
    "star6-excited-sup": "68de4f37c75f258ebf3d76c73cb221ddc3da2e87cf8099788e89889e93d21b30",
    "chain3-excited-sup-alpha": "dbdd41ff24812fbcc370a2f82af56767082e563a254c13480d044e7d473291ef",
    "chain3-bitflip-alice": "b8330c4a000e81ace9455107b850859ad652fbe2398ac8f005335f33b160171d",
}


# name: the crossings of the scan, as float.hex: each the exact root of the
# family's E_B = a + b p + c sqrt(p (1 - p)) in its bracket, so the same bits
# on any grid that brackets it.
SCAN_CROSSINGS = {
    "chain3-classical": ("0x1.00269a5a1cde1p-2",),
    "chain3-depolarize": (),
    "chain3-bitflip": ("0x1.2a16bc7823f15p-5",),
    "chain3-phaseflip": (),
    "chain3-excited-mix": ("0x1.d54e4057c4c84p-3",),
    "chain3-excited-sup": ("0x1.d54e4057c4e54p-3",),
    "star6-classical": ("0x1.00e1490f8503bp-2",),
    "star6-depolarize": (),
    "star6-bitflip": ("0x1.cba7366b2ca3fp-5",),
    "star6-phaseflip": (),
    "star6-excited-mix": ("0x1.5f5d0d4a54983p-2",),
    "star6-excited-sup": ("0x1.5f5d0d4a54a4fp-2",),
    "chain3-excited-sup-alpha": ("0x1.d54e4057c4ab4p-3",),
    "chain3-bitflip-alice": (),
}


class TestScanOutputs:
    @pytest.mark.parametrize("name", list(_scan_cases()))
    def test_scan_crossings_keep_their_bits(self, name, tmp_path, capsys, monkeypatch):
        # the same bits on the CLI's grid, reversed, and on coarser and finer grids
        monkeypatch.chdir(tmp_path)
        calls = []
        scan = cli.threshold_scan
        monkeypatch.setattr(cli, "threshold_scan",
                            lambda *a, **kw: calls.append((a, kw)) or scan(*a, **kw))
        assert run_cli(capsys, "noise", *_scan_cases()[name], "--out", "scan.csv")[0] == 0
        (ctx, family, grid), kwargs = calls[0]
        for g in (grid, grid[::-1], np.linspace(0, 1, 21), np.linspace(0, 1, 1001)):
            report = scan(ctx, family, g, **kwargs)
            assert tuple(p.hex() for p in report.crossings) == SCAN_CROSSINGS[name]

    @pytest.mark.parametrize("name", list(_scan_cases()))
    def test_scan_bytes_pinned(self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the manifest holds the --out path
        code, out, err = run_cli(capsys, "noise", *_scan_cases()[name], "--out", "scan.csv")
        assert err == ""
        data = b"\0".join((Path("scan.csv").read_bytes(), out.encode(), str(code).encode()))
        assert hashlib.sha256(data).hexdigest() == SCAN_DIGESTS[name]


class TestSession:
    def test_summary_and_transcript(self, tmp_path, capsys):
        transcript = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "session", "--model", "chain3", "--J", "1",
                               "--rounds", "64", "--verify-bits", "16",
                               "--seed", "7", "--transcript", str(transcript))
        assert code == 0
        assert "match_rate=1.000000" in out
        assert "verification=pass" in out
        assert transcript.exists()

    def test_transcripts_bit_identical_across_runs(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "session", "--model", "chain3",
                                 "--J", "1", "--rounds", "256", "--seed", "7",
                                 "--transcript", str(path))
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv", [
        ("--noise", "foo", "0.1"),
        ("--noise", "bit_flip", "1.5"),
        ("--noise-site", "7", "--noise", "bit_flip", "0.1"),
        ("--rounds", "10"),
    ])
    def test_bad_session_arguments_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "session", "--model", "chain3", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--noise", "local_kraus", "0.1"),
        ("--noise", "local_kraus", "0.0", "--noise-site", "1"),
    ])
    def test_local_kraus_refused_with_the_library_path(self, capsys, argv):
        # the CLI has no way to give Kraus operators
        code, out, err = run_cli(capsys, "session", "--model", "chain3", "--J", "1", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and 'NoiseSpec("local_kraus"' in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--model", "chain3", "--J", "0"),
        ("--model", "star", "--N", "3", "--J", "0", "--policy", "haar"),
    ])
    def test_zero_coupling_without_threshold_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "session", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "--epsilon" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("session", "--model", "star", "--N", "2", "--J", "1", "--policy", "haar"),
        ("session", "--model", "star", "--N", "3", "--J", "1", "--policy", "two-random"),
        ("qet", "--model", "star", "--N", "4", "--basis", "y"),
        ("qet", "--model", "star", "--N", "1", "--basis", "random"),
        ("qet", "--model", "star", "--N", "3", "--basis", "y", "--sweep-J", "0:1:3"),
    ])
    def test_star_sender_basis_off_x_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "only X commutes" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("--model", "chain3", "--J", "0", "--policy", "haar", "--epsilon", "1e-3"),
        ("--model", "star", "--N", "3", "--J", "0", "--policy", "haar", "--epsilon", "1e-3"),
        ("--model", "two-site", "--policy", "haar"),
        ("--model", "two-site", "--policy", "two-random"),
    ])
    def test_policy_without_usable_axis_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "session", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "policy" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_star_y_basis_at_zero_coupling_runs(self, tmp_path, capsys):
        out_path = tmp_path / "y.csv"
        code, _, _ = run_cli(capsys, "qet", "--model", "star", "--N", "4", "--basis", "y",
                             "--J", "0", "--out", str(out_path))
        assert code == 0
        assert read_csv(out_path)[1] == [["0", "1", "0"]]

    def test_erasure_abort_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "session", "--model", "chain3", "--J", "1",
                               "--rounds", "16", "--verify-bits", "0",
                               "--epsilon", "10", "--seed", "1")
        assert code == 4
        assert "abort" in err


class TestAttack:
    def test_postselect_reports_zero_gap(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "postselect",
                               "--rounds", "1000", "--seed", "3")
        assert code == 0
        gap_line = [l for l in out.splitlines() if l.startswith("frobenius_gap")][0]
        assert float(gap_line.split("=")[1]) <= 1e-12

    def test_split_eve_waits_rate_near_half(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "split",
                               "--sub", "eve-waits", "--rounds", "10000",
                               "--seed", "5")
        assert code == 0
        kv = dict(line.split("=", 1) for line in out.strip().splitlines()
                  if "=" in line)
        rate = float(kv["key_match_rate_alice_bob"])
        se = float(kv["se_alice_bob"])
        assert abs(rate - 0.5) <= 3 * se

    def test_independent_kv_block(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--scenario", "independent",
                               "--rounds", "2000", "--seed", "1")
        assert code == 0
        assert "scenario=independent" in out
        assert "detection=none" in out


class TestModelParameters:
    @pytest.mark.parametrize("argv", [
        ("ground", "--J", "-1"),
        ("ground", "--sweep-J", "1:-1:3"),
        ("ground", "--model", "two-site", "--k", "-1"),
        ("qet", "--J", "-1"),
        ("qet", "--sweep-J", "1:-1:3"),
        ("qet", "--model", "star", "--N", "101"),
        ("noise", "--family", "classical", "--J", "-1"),
        ("session", "--J", "-1"),
        ("attack", "--scenario", "independent", "--J", "-1"),
        ("attack", "--scenario", "independent", "--rounds", "0"),
        ("attack", "--scenario", "postselect", "--rounds", "0"),
        ("attack", "--scenario", "postselect", "--rounds", "-5"),
        ("noise", "--family", "bitflip", "--site", "7"),
        ("noise", "--family", "bitflip", "--site", "-1"),
        ("noise", "--family", "bitflip", "--site", "foo"),
        ("noise", "--family", "phaseflip", "--model", "star", "--N", "3", "--J", "1",
         "--site", "4"),
        ("noise", "--family", "classical", "--grid", "0:2:5"),
        ("noise", "--family", "classical", "--model", "chain3", "--J", "1",
         "--grid", "nan:1:5"),
        ("qet", "--J", "nan"),
        ("ground", "--J", "inf"),
        ("noise", "--family", "classical", "--J", "inf"),
        ("attack", "--scenario", "independent", "--J", "nan"),
        ("session", "--J", "nan"),
        ("qet", "--sweep-J", "0:nan:3"),
        ("qet", "--model", "two-site", "--k", "nan"),
        ("noise", "--family", "excited-sup", "--J", "1", "--alpha", "nan"),
        ("noise", "--family", "excited-sup", "--J", "1", "--alpha", "inf"),
        ("session", "--epsilon", "nan"),
        ("session", "--epsilon", "inf"),
    ])
    def test_out_of_range_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_session_summary_names_stream_layout(self, capsys):
        code, out, _ = run_cli(capsys, "session", "--model", "chain3", "--J", "1",
                               "--rounds", "32", "--verify-bits", "8")
        assert code == 0
        assert out.splitlines()[-1] == "stream_layout=2"


class TestManifest:
    def test_csv_rerun_byte_identical(self, tmp_path, capsys):
        args = ["qet", "--model", "chain3", "--basis", "x",
                "--sweep-J", "0:2:5"]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        run_cli(capsys, *args, "--out", str(p1))
        run_cli(capsys, *args, "--out", str(p2))
        first = p1.read_bytes()
        second = p2.read_bytes()
        # the manifest embeds the out path; normalize it before comparing
        assert first.replace(b"one.csv", b"") == second.replace(b"two.csv", b"")

    def test_manifest_embeds_parameters(self, tmp_path, capsys):
        out_path = tmp_path / "m.csv"
        run_cli(capsys, "qet", "--model", "chain3", "--basis", "y",
                "--sweep-J", "0:1:3", "--out", str(out_path))
        manifest_line = out_path.read_text().splitlines()[0]
        assert '"basis": "y"' in manifest_line
        assert '"version"' in manifest_line

    def test_manifest_keeps_a_long_grid_exactly(self, tmp_path, capsys):
        # numpy prints arrays of more than 1000 entries with "..."; the
        # manifest must hold every grid point to reproduce the file.
        out_path = tmp_path / "long.csv"
        run_cli(capsys, "noise", "--family", "classical", "--model", "chain3", "--J", "1",
                "--grid", "0:1:2001", "--out", str(out_path))
        manifest_line = out_path.read_text().splitlines()[0]
        payload = json.loads(manifest_line[len("# manifest: "):])
        assert payload["grid"] == np.linspace(0.0, 1.0, 2001).tolist()


class TestOutputsRewrittenInPlace:
    """A CSV is written over the old bytes and cut to its length, never
    truncated to zero first; what is left is what a fresh write leaves."""

    LONG = ("qet", "--model", "star", "--N", "3", "--J", "1", "--sweep-J", "0:1:9")
    SHORT = LONG[:-1] + ("0:1:3",)

    def test_long_short_long_equal_fresh_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the manifest holds the --out path
        fresh = {}
        for argv in (self.LONG, self.SHORT):
            assert run_cli(capsys, *argv, "--out", "f.csv")[0] == 0
            fresh[argv] = Path("f.csv").read_bytes()
            Path("f.csv").unlink()
        assert len(fresh[self.SHORT]) < len(fresh[self.LONG])
        for argv in (self.LONG, self.SHORT, self.LONG):
            assert run_cli(capsys, *argv, "--out", "f.csv")[0] == 0
            assert Path("f.csv").read_bytes() == fresh[argv]

    def test_out_to_a_pipe(self):
        # /dev/stdout on a pipe cannot be truncated; the bytes are pinned
        # from the writer that opened the path with "w"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-m", "qetkd.cli", *self.LONG,
                              "--out", "/dev/stdout"], env=env, capture_output=True)
        assert (run.returncode, run.stderr) == (0, b"")
        assert hashlib.sha256(run.stdout).hexdigest() == \
            "8d91a91730e7726ee5a251c0dd652e1b6a6de7307a3c893a90f18a2861010e3c"

    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        old = os.umask(0o027)
        try:
            assert run_cli(capsys, *self.SHORT, "--out", str(path))[0] == 0
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_existing_file_keeps_its_mode(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_bytes(b"x" * 10_000)
        path.chmod(0o604)
        assert run_cli(capsys, *self.SHORT, "--out", str(path))[0] == 0
        assert path.stat().st_mode & 0o777 == 0o604
        assert path.read_bytes().startswith(b"# manifest: ")
        assert len(path.read_bytes()) < 10_000

    @pytest.mark.parametrize("target", ["read-only", "directory", "missing-parent"])
    def test_unwritable_target_fails_as_open_w_does(self, target, tmp_path, capsys):
        # where open(path, "w") fails, the CLI exits 2 with one stderr line
        # naming the path and the error; a read-only file refuses a writer
        # unless the process may override file modes (root may)
        paths = [tmp_path / "a", tmp_path / "b"]
        for path in paths:
            if target == "directory":
                path.mkdir()
            elif target == "read-only":
                path.write_bytes(b"old contents")
                path.chmod(0o444)
        if target == "missing-parent":
            paths = [path / "f.csv" for path in paths]
        expected = _os_errno(lambda: open(paths[0], "w").close())
        code, _, err = run_cli(capsys, *self.SHORT, "--out", str(paths[1]))
        if expected is None:
            assert (code, err) == (0, "")
            return
        assert (code, err) == (2, f"cannot write {paths[1]}: {os.strerror(expected)}\n")
        if target == "read-only":
            assert paths[1].read_bytes() == b"old contents"

    def test_unwritable_transcript_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "session", "--model", "chain3", "--rounds", "100",
                               "--transcript", str(tmp_path))
        assert (code, err) == (2, f"cannot write {tmp_path}: {os.strerror(errno.EISDIR)}\n")


def _os_errno(write):
    """The errno of the OSError ``write()`` raises, or None."""
    try:
        write()
    except OSError as exc:
        return exc.errno
    return None
