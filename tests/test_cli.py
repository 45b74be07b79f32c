"""End-to-end CLI tests (in-process via cli.main; the hash-seed test runs
two subprocesses)."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apobs
from apobs.abstraction import Mode, SystemSpec, system_spec_from_json
from apobs.cli import (BENCH_FORMULAS, EXIT_ERROR, EXIT_INCONCLUSIVE,
                       EXIT_VERIFIED, PAPER_REFERENCE, build_parser, main)
from apobs.scenarios import drone_spec


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "drone.json"
    assert main(["scenario", "drone", "--out", str(path)]) == EXIT_VERIFIED
    return str(path)


class TestScenario:
    def test_writes_spec(self, spec_file, capsys):
        obj = json.loads(Path(spec_file).read_text())
        assert obj["dim"] == 2
        # r_mode "or": |x| >= 2.1 or |y| >= 2.1, one half-space a conjunct
        assert obj["aps"]["r"] == [
            [{"axis": 0, "op": "ge", "c": 2.1}],
            [{"axis": 0, "op": "le", "c": -2.1}],
            [{"axis": 1, "op": "ge", "c": 2.1}],
            [{"axis": 1, "op": "le", "c": -2.1}]]
        assert sorted(obj["aps"]) == ["b", "c", "g", "p", "r"]

    def test_cell_count_messages(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["scenario", "drone", "--out", str(out)])
        assert "1089 grid cells" in capsys.readouterr().out
        main(["scenario", "drone", "--eta", "0.5", "--out", str(out)])
        assert "4489 grid cells" in capsys.readouterr().out

    @pytest.mark.parametrize("r_mode", ["or", "and"])
    def test_r_mode_loads_back(self, tmp_path, capsys, r_mode):
        out = tmp_path / "s.json"
        assert main(["scenario", "drone", "--r-mode", r_mode,
                     "--out", str(out)]) == EXIT_VERIFIED
        spec = system_spec_from_json(json.loads(out.read_text()))
        assert spec.ap_regions == drone_spec(r_mode=r_mode).ap_regions

    def test_stdout_default(self, capsys):
        assert main(["scenario", "drone"]) == EXIT_VERIFIED
        obj = json.loads(capsys.readouterr().out)
        assert obj["eta"] == 1.0

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "nosuch"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_verified_with_exports(self, spec_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        dot = tmp_path / "aut.dot"
        gamef = tmp_path / "game.json"
        code = main(["verify", "--system", spec_file, "--formula", "G r",
                     "--repeat", "1", "--out", str(report),
                     "--export-automaton", str(dot),
                     "--export-game", str(gamef)])
        assert code == EXIT_VERIFIED
        out = capsys.readouterr().out
        assert "verdict:  VERIFIED" in out
        obj = json.loads(report.read_text())
        assert obj["verdict"] == "VERIFIED"
        assert obj["solve"]["verdict"] == "VERIFIED"
        assert obj["sizes"]["model"] == 1089
        assert dot.read_text().startswith("digraph")
        g = json.loads(gamef.read_text())
        assert g["player_vertices"] == obj["sizes"]["game_player"]

    def test_inconclusive_exit_code(self, spec_file, capsys):
        code = main(["verify", "--system", spec_file,
                     "--formula", "G F g", "--repeat", "1"])
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_unsupported_operator(self, spec_file, capsys):
        assert main(["verify", "--system", spec_file, "--formula", "X p",
                     "--repeat", "1"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unsound_tau(self, spec_file, capsys):
        assert main(["verify", "--system", spec_file, "--formula", "G r",
                     "--tau", "10", "--repeat", "1"]) == EXIT_ERROR
        assert "tau" in capsys.readouterr().err
        # the error names the CLI's override, which lets the run go on
        args = ["verify", "--system", spec_file, "--formula", "G r",
                "--tau", "1.1"]
        assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--allow-unsound-tau" in err
        assert main(args + ["--allow-unsound-tau"]) in (EXIT_VERIFIED,
                                                        EXIT_INCONCLUSIVE)

    def test_report_deterministic(self, spec_file, tmp_path, capsys):
        hashes = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["verify", "--system", spec_file, "--formula", "G r",
                  "--repeat", "1", "--out", str(out)])
            hashes.append(json.loads(out.read_text())["config_hash"])
        capsys.readouterr()
        assert hashes[0] == hashes[1]


class TestMalformedSpec:
    @pytest.mark.parametrize("edit, field", [
        (lambda o: o.pop("modes"), "missing field 'modes'"),
        (lambda o: o.update(domain=[[-1, 1]]), "bad field 'domain'"),
        (lambda o: o["modes"]["default"].update(v="fast"),
         "bad field 'modes'"),
        (lambda o: o["aps"]["p"][0][0].update(op="lt"), "AP 'p': op 'lt'"),
        (lambda o: o["aps"]["p"][0][0].update(c=math.nan),
         "AP 'p': threshold nan"),
        (lambda o: o["aps"]["p"][0][0].update(c="6"), "AP 'p': threshold"),
        (lambda o: o["aps"]["p"][0][0].update(axis=-1), "AP 'p': axis -1"),
        (lambda o: o["aps"]["p"][0][0].update(axis=7), "AP 'p': axis 7"),
        (lambda o: o["aps"]["p"][0][0].update(axis=True),
         "AP 'p': axis True"),
        (lambda o: o["modes"]["default"].update(v=math.nan),
         "mode 'default'"),
        (lambda o: o["domain"][0].__setitem__(1, math.inf),
         "domain bounds and x_in must be finite"),
        (lambda o: o["modes"]["default"].update(ev=-0.5),
         "mode 'default': a deviation is negative"),
        (lambda o: o["modes"]["default"].update(etheta=-0.1),
         "mode 'default': a deviation is negative"),
        (lambda o: o["modes"].update(w={"u": [1.0, 0.0], "du": [-0.1, 0]}),
         "mode 'w': a deviation is negative"),
        (lambda o: o["modes"].update(w={"u": [1.0]}),
         "mode 'w': u and du need 2 entries"),
        (lambda o: o["modes"].update(w={"u": [1.0, 0.0], "du": [0.1]}),
         "mode 'w': u and du need 2 entries"),
        (lambda o: o["modes"]["default"].update(ev=5.0),
         "mode 'default': speed deviation exceeds nominal speed"),
        (lambda o: o["modes"].update(field="nosuch"),
         "field: no mode named 'nosuch'"),
        (lambda o: o["modes"].update(field={"kind": "weird"}),
         "field: kind 'weird' is not table or patrol"),
        (lambda o: o["modes"].update(field={
            "kind": "table", "cells": {"0,0": "default"}, "default": "x"}),
         "field: no mode named 'x'"),
        (lambda o: o["modes"].update(field={
            "kind": "table", "cells": {"0,0": "nosuch"}}),
         "field: no mode named 'nosuch'"),
        (lambda o: o["modes"].pop("default"),
         "field: no mode named 'default'"),
        (lambda o: o["modes"].update(field={
            "kind": "table", "cells": {"0,0": ["default"]}}),
         "field: a table needs 'cells' mapping each cell to a mode name"),
        (lambda o: o.update(dim=1, domain=o["domain"][:1],
                            x_in=o["x_in"][:1]),
         "field: patrol needs dim 2, not 1"),
        (lambda o: o["modes"].update(default={"u": [0.5, 0.0]}),
         "field: patrol needs an angular 'default' mode"),
        (lambda o: o["modes"].update(field={"kind": "patrol", "tilt": 0.2,
                                            "xleft": -9}),
         "field: patrol takes no parameters, got 'tilt', 'xleft'"),
        (lambda o: o["modes"].update(field={
            "kind": "table", "cells": {"3": "default", "1,2,3": "default"}}),
         "field: table key (3,) needs 2 indices"),
        (lambda o: o["modes"].update(w={"speed": 4.0, "theta": 0.0}),
         "mode 'w': unknown key 'speed'"),
        (lambda o: o["modes"].update(w={"v": 4, "du": [1, 1]}),
         "mode 'w': du without u"),
        (lambda o: o["modes"].update(w={"u": [1.0, 0.0], "v": 4.0}),
         "mode 'w': vector form u mixed with angular key 'v'"),
        (lambda o: o["modes"].update(w={"u": [1.0, 0.0], "du": [0.1, 0.1],
                                        "theta": 0.0, "etheta": 0.1}),
         "mode 'w': vector form u mixed with angular key 'etheta', 'theta'"),
        (lambda o: o.update(taus=0.5), "spec JSON: unknown key 'taus'"),
        (lambda o: o["aps"]["p"][0][0].update(strict=True),
         "AP 'p': unknown key 'strict'"),
        (lambda o: o["modes"].update(field={
            "kind": "table", "cells": {"0,0": "default"},
            "defualt": "default"}),
         "field: unknown key 'defualt'"),
    ], ids=["missing-modes", "short-domain", "non-numeric-speed", "op-lt",
            "nan-threshold", "string-threshold", "negative-axis",
            "axis-out-of-range", "bool-axis", "nan-speed", "infinite-domain",
            "negative-ev", "negative-etheta", "negative-du", "short-u",
            "short-du", "ev-exceeds-v", "unknown-uniform-mode", "weird-kind",
            "unknown-table-default", "unknown-table-cell",
            "patrol-without-default", "unhashable-table-cell",
            "patrol-1d", "patrol-vector-default", "patrol-with-parameters",
            "table-key-arity", "unknown-mode-key", "du-without-u",
            "vector-and-speed", "vector-and-heading", "unknown-top-level-key",
            "unknown-half-space-key", "unknown-table-key"])
    def test_one_line_error(self, spec_file, tmp_path, capsys, edit, field):
        obj = json.loads(Path(spec_file).read_text())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["verify", "--system", str(bad), "--formula", "G r",
                     "--repeat", "1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("option", ["--eta", "--tau"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_step(self, spec_file, capsys, option, value):
        assert main(["verify", "--system", spec_file, "--formula", "G r",
                     option, value, "--repeat", "1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: eta and tau must be positive and finite\n"

    def test_spec_checked_on_construction(self):
        # library callers get the check too, not only spec JSON
        with pytest.raises(ValueError, match="AP 'p': op 'lt'"):
            SystemSpec(dim=1, domain=((0.0, 2.0),), eta=1.0, tau=1.0,
                       x_in=(1.0,), modes={"default": Mode(v=1.0)},
                       field="default", ap_regions={"p": (((0, "lt", 1.0),),)})
        # a negative deviation shrinks the velocity box below the velocities
        # simulate_trajectory draws, so the model misses runs
        with pytest.raises(ValueError, match="mode 'default': a deviation"):
            SystemSpec(dim=1, domain=((-0.5, 6.5),), eta=1.0, tau=1.0,
                       x_in=(0.0,), modes={"default": Mode(u=(0.9,),
                                                           du=(-0.6,))},
                       field="default", ap_regions={})
        with pytest.raises(ValueError, match="mode 'default': du without u"):
            SystemSpec(dim=1, domain=((0.0, 2.0),), eta=1.0, tau=1.0,
                       x_in=(1.0,), modes={"default": Mode(v=1.0, du=(0.1,))},
                       field="default", ap_regions={})
        # readers of a vector-form mode ignore the angular fields
        with pytest.raises(ValueError, match="mode 'w': vector form u mixed "
                           "with a nonzero angular field"):
            SystemSpec(dim=1, domain=((0.0, 2.0),), eta=1.0, tau=1.0,
                       x_in=(1.0,), modes={"default": Mode(u=(1.0,)),
                                           "w": Mode(u=(1.0,), v=4.0)},
                       field="default", ap_regions={})

    def test_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["verify", "--system", str(bad), "--formula", "G r",
                     "--repeat", "1"]) == EXIT_ERROR
        assert "expected an object" in capsys.readouterr().err

    def test_grid_too_large(self, spec_file, tmp_path, monkeypatch, capsys):
        # the drone at eta 0.001 has 33,001**2 cells; building them is
        # made to run out of memory instead of being tried
        def out_of_memory(spec):
            raise MemoryError
        for name in ("cells", "cell_modes"):
            monkeypatch.setattr(SystemSpec, name, property(out_of_memory))
        assert main(["verify", "--system", spec_file, "--formula", "G r",
                     "--eta", "0.001"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: stage 'model': the grid has 1,089,066,001 cells, too "
            "many to build\n")
        # writing the spec counts the cells without building them
        out = tmp_path / "fine.json"
        assert main(["scenario", "drone", "--eta", "0.001",
                     "--out", str(out)]) == EXIT_VERIFIED
        assert "1089066001 grid cells" in capsys.readouterr().out


def test_exports_independent_of_hash_seed(spec_file, tmp_path):
    # automaton states and game vertices hold strings, whose hashes
    # change with PYTHONHASHSEED; no export may depend on them
    src = str(Path(apobs.__file__).resolve().parents[1])
    exports = []
    dots = []
    for seed in ("0", "2"):
        report, game = tmp_path / f"r{seed}.json", tmp_path / f"g{seed}.json"
        dot = tmp_path / f"a{seed}.dot"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "apobs.cli", "verify", "--system",
             spec_file, "--formula", "F G r", "--repeat", "1",
             "--out", str(report), "--export-game", str(game)],
            env=env, check=True, capture_output=True)
        payload = json.loads(report.read_text())
        del payload["times"]
        exports.append((payload, json.loads(game.read_text())))
        # the 49-state automaton of G r & F (g & F p); INCONCLUSIVE exits 2
        run = subprocess.run(
            [sys.executable, "-m", "apobs.cli", "verify", "--system",
             spec_file, "--formula", "G r & F (g & F p)", "--repeat", "1",
             "--export-automaton", str(dot)],
            env=env, capture_output=True)
        assert run.returncode == EXIT_INCONCLUSIVE, run.stderr
        dots.append(dot.read_bytes())
    assert exports[0] == exports[1]
    assert dots[0] == dots[1]
    # sha256 of the DOT text: a change of the automaton's representation
    # keeps these bytes
    assert hashlib.sha256(dots[0]).hexdigest() == \
        "2edc3b633ddbbf9f3e3cb93305ac0a88951233af9531fe6bcdd489349caf73f2"
    # sha256 of the canonical JSON of the report (without times) and of
    # the game: a change of the game's representation keeps these bytes
    sha = [hashlib.sha256(json.dumps(x, sort_keys=True).encode()).hexdigest()
           for x in exports[0]]
    assert sha == [
        "0fe00fde0178c7144a3f52241a02666fdb0f01859bfcfea68d9ff43899134f4c",
        "a55235a3832f655b0990867febb7b58fa0cb325a20b9e83c8aa9f7adbc189553"]


class TestUsageErrors:
    """A usage error exits 1 (EXIT_ERROR) with one line on stderr, never 2,
    which a script would read as INCONCLUSIVE."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--system", "d.json"], "required: --formula"),
        (["verify", "--system", "d.json", "--formula", "G r",
          "--eta", "abc"], "argument --eta"),
        (["verify", "--system", "d.json", "--formula", "G r",
          "--repeat", "x"], "argument --repeat"),
        (["verify", "--system", "d.json", "--formula", "G r",
          "--repeat", "0"], "argument --repeat"),
        (["verify", "--system", "d.json", "--formula", "G r",
          "--repeat", "-3"], "argument --repeat"),
        (["bench", "--repeat", "0"], "argument --repeat"),
        (["frob"], "invalid choice: 'frob'"),
        ([], "required: command"),
    ], ids=["missing-formula", "eta-abc", "repeat-x", "repeat-0",
            "repeat-minus-3", "bench-repeat-0", "unknown-subcommand",
            "no-subcommand"])
    def test_exit_one(self, capsys, argv, message):
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: apobs")


def test_repeat_defaults_to_one():
    # a cold single run: averaged reruns understate the first game build
    for argv in (["verify", "--system", "s.json", "--formula", "G r"],
                 ["bench"]):
        assert build_parser().parse_args(argv).repeat == 1


class TestBench:
    def test_reference_table_covers_bench_formulas(self):
        assert len(BENCH_FORMULAS) == 9
        assert set(BENCH_FORMULAS) == set(PAPER_REFERENCE)

    def test_custom_formulas_no_reference(self, spec_file, tmp_path, capsys):
        ff = tmp_path / "formulas.txt"
        ff.write_text("G r\nF G r\n")
        csvf = tmp_path / "bench.csv"
        code = main(["bench", "--system", spec_file, "--formulas", str(ff),
                     "--repeat", "1", "--csv", str(csvf)])
        assert code == EXIT_VERIFIED
        out = capsys.readouterr().out
        assert "paper" not in out
        assert "(timings from a single run, not averaged)" in out
        assert "G r" in out and "F G r" in out
        with open(csvf, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["formula"] for r in rows] == ["G r", "F G r"]
        assert rows[0]["verdict"] == "VERIFIED"
        assert int(rows[0]["automaton"]) == 2
        # each row builds its own model, and its total includes it
        assert "model(s)" in out
        for r in rows:
            assert float(r["model_s"]) >= 0.0
            assert float(r["total_s"]) >= float(r["model_s"])

    def test_bench_rows_pinned(self, tmp_path, capsys):
        # the nine rows on the built-in drone at eta = 1 (1,089 cells):
        # verdict, |B| and game P+O.  Every row builds its own model.
        # ROADMAP direction 1 (sound labels) will move the c U b and
        # b R c game sizes.
        csvf = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(csvf)]) == EXIT_VERIFIED
        capsys.readouterr()
        with open(csvf, newline="") as fh:
            rows = {r["formula"]: (r["verdict"][0], int(r["automaton"]),
                                   int(r["game_player"]),
                                   int(r["game_opponent"]))
                    for r in csv.DictReader(fh)}
        assert list(rows) == list(BENCH_FORMULAS)
        assert rows == {
            "G r": ("V", 2, 297, 292),
            "F p": ("I", 5, 297, 292),
            "c U b": ("I", 7, 923, 598),
            "b R c": ("I", 7, 923, 598),
            "F G r": ("V", 6, 879, 874),
            "G F g": ("I", 7, 307, 298),
            "F (g & F p)": ("I", 33, 588, 583),
            "G r & (F p & F c)": ("I", 46, 307, 298),
            "G r & F (g & F p)": ("I", 49, 588, 583),
        }
