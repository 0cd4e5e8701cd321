import json

import numpy as np
import pytest

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

    def test_sender_site_bitflip_flat(self, tmp_path, capsys):
        out_path = tmp_path / "flat.csv"
        code, _, _ = run_cli(capsys, "noise", "--family", "bitflip",
                             "--site", "alice", "--model", "chain3", "--J", "1",
                             "--grid", "0:1:11", "--out", str(out_path))
        assert code == 0
        _, rows = read_csv(out_path)
        e_b = [float(r[4]) for r in rows]
        assert max(e_b) - min(e_b) <= 1e-10


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
        ("qet", "--model", "star", "--N", "20"),
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
