"""Command-line interface: subcommands, config handling, outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import awrlab
from awrlab import fv, original, perturbed
from awrlab.core import State
from awrlab.cli import _linspace, run
from awrlab.rootfind import BracketError


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def fresh_python(code):
    """Stdout of ``python -c code`` in a fresh interpreter that imports the
    awrlab under test."""
    src = os.path.dirname(os.path.dirname(awrlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return proc.stdout


BASE = ["--A", "0.1", "--B", "0.1", "--alpha", "0.5", "--left", "2,1", "--right", "1,2"]


class TestSolve:
    def test_original_profile_csv(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run(
            ["solve", "--system", "original", *BASE, "--samples", "101", "--out", out]
        )
        assert code == 0
        text = read(os.path.join(out, "profile.csv"))
        lines = text.strip().split("\n")
        assert lines[0] == "xi,u,rho"
        assert len(lines) == 102
        assert os.path.exists(os.path.join(out, "profile.svg"))
        svg = read(os.path.join(out, "profile.svg"))
        assert svg.startswith("<svg")
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 2

    def test_transport_profile(self, tmp_path):
        out = str(tmp_path / "t")
        code = run(
            [
                "solve",
                "--system",
                "transport",
                "--left",
                "2,1",
                "--right",
                "1,2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "profile.csv"))

    def test_constant_data_single_state(self, tmp_path):
        out = str(tmp_path / "c")
        code = run(
            [
                "solve",
                "--system",
                "original",
                "--A",
                "0.1",
                "--B",
                "0.1",
                "--alpha",
                "0.5",
                "--left",
                "2,1",
                "--right",
                "2,1",
                "--samples",
                "11",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = read(os.path.join(out, "profile.csv")).strip().split("\n")
        values = {tuple(line.split(",")[1:]) for line in lines[1:]}
        assert len(values) == 1  # one constant state everywhere

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["solve", "--system", "perturbed", *BASE, "--samples", "101"]
        assert run([*argv, "--out", out1]) == 0
        assert run([*argv, "--out", out2]) == 0
        assert read(os.path.join(out1, "profile.csv")) == read(
            os.path.join(out2, "profile.csv")
        )

    def test_grid_is_numpy_linspace_bit_for_bit(self):
        rng = np.random.RandomState(6)
        for _ in range(500):
            lo = float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))
            hi = lo + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4))
            n = int(rng.randint(2, 1000))
            expected = np.linspace(lo, hi, n)
            assert np.array(_linspace(lo, hi, n)).tobytes() == expected.tobytes()


class TestClassify:
    def test_original(self, capsys):
        assert run(["classify", "--system", "original", *BASE]) == 0
        assert "region: IV" in capsys.readouterr().out

    def test_perturbed(self, capsys):
        assert run(["classify", "--system", "perturbed", *BASE]) == 0
        assert "region: SS" in capsys.readouterr().out

    def test_transport(self, capsys):
        assert (
            run(["classify", "--system", "transport", "--left", "2,1", "--right", "1,2"])
            == 0
        )
        assert "delta" in capsys.readouterr().out


class TestSweep:
    def test_original_all_pass(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        code = run(
            [
                "sweep",
                "--system",
                "original",
                "--left",
                "2,1",
                "--right",
                "1,2",
                "--alpha",
                "0.5",
                "--schedule",
                "1e-1:1e-6",
                "--out",
                out,
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in captured
        assert "[FAIL]" not in captured
        lines = read(os.path.join(out, "sweep_original.csv")).strip().split("\n")
        assert lines[0] == "A,B,rho_star,u_star,sigma1,sigma2,product,A_rho_star"
        assert len(lines) == 7
        assert os.path.exists(os.path.join(out, "sweep_original_rho_star.svg"))

    def test_perturbed_all_pass(self, tmp_path, capsys):
        out = str(tmp_path / "sp")
        code = run(
            [
                "sweep",
                "--system",
                "perturbed",
                "--left",
                "2,1",
                "--right",
                "1,2",
                "--alpha",
                "0.5",
                "--schedule",
                "1e-1:1e-5:5",
                "--out",
                out,
            ]
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert "[FAIL]" not in out_text
        for v in out_text.splitlines():
            if v.startswith("[PASS]"):
                assert "target=" in v and "achieved=" in v and "tol=" in v

    def test_transport_rejected(self, capsys):
        code = run(
            ["sweep", "--system", "transport", "--left", "2,1", "--right", "1,2"]
        )
        assert code == 1


class TestSimulate:
    def test_snapshot_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code = run(
            [
                "simulate",
                "--system",
                "original",
                *BASE,
                "--grid",
                "64",
                "--T",
                "0.2",
                "--xmin",
                "-1",
                "--xmax",
                "1.5",
                "--out",
                out,
            ]
        )
        assert code == 0
        csv_path = os.path.join(out, "snapshot_t0p2.csv")
        lines = read(csv_path).strip().split("\n")
        assert lines[0] == "x,rho,u,q1,q2,t"
        assert len(lines) == 65
        assert os.path.exists(os.path.join(out, "snapshot_t0p2_rho.svg"))
        assert os.path.exists(os.path.join(out, "snapshot_t0p2_u.svg"))

    def test_floor_warning_counts_each_interval(self, tmp_path, monkeypatch, capsys):
        # floored_cells is cumulative: 3 then 3 means no new floors after t = 0.1
        x = np.linspace(-0.9, 0.9, 16)
        ones = np.ones_like(x)

        def fake_simulate(*args, **kwargs):
            return [
                fv.FieldSnapshot(x, ones, ones, ones, ones, t, 3) for t in (0.1, 0.2)
            ]

        monkeypatch.setattr(fv, "simulate", fake_simulate)
        out = str(tmp_path / "sim")
        args = ["simulate", "--system", "original", *BASE, "--grid", "16", "--T", "0.2"]
        assert run([*args, "--out", out]) == 0
        warnings = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("warning")
        ]
        assert warnings == ["warning: density floor triggered in 3 cell-updates over t in (0, 0.1]"]


class TestWeakcheck:
    def test_residuals_below_tolerance(self, tmp_path, capsys):
        out = str(tmp_path / "w")
        code = run(
            [
                "weakcheck",
                "--A",
                "1e-2",
                "--B",
                "1e-2",
                "--alpha",
                "0.5",
                "--left",
                "2,1",
                "--right",
                "1,2",
                "--seed",
                "7",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert "max |residual|" in capsys.readouterr().out
        lines = read(os.path.join(out, "weakcheck.csv")).strip().split("\n")
        assert lines[0] == "center,width,r1,r2"
        assert len(lines) == 6  # default 5 bumps

    def test_seed_determinism(self, tmp_path):
        argv = [
            "weakcheck",
            "--A",
            "1e-2",
            "--B",
            "1e-2",
            "--alpha",
            "0.5",
            "--left",
            "2,1",
            "--right",
            "1,2",
            "--seed",
            "3",
            "--bumps",
            "3",
        ]
        out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        assert run([*argv, "--out", out1]) == 0
        assert run([*argv, "--out", out2]) == 0
        assert read(os.path.join(out1, "weakcheck.csv")) == read(
            os.path.join(out2, "weakcheck.csv")
        )


class TestDelta:
    def test_both_kinds_reported(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        code = run(["delta", "--left", "2,1", "--right", "1,2", "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "TRANSPORT: sigma=" in text
        assert "SPECIAL: sigma=" in text
        lines = read(os.path.join(out, "delta.csv")).strip().split("\n")
        assert lines[0] == "kind,sigma,weight_rate,r_mass,r_momentum,entropy"
        assert len(lines) == 3

    def test_non_compressive_data_errors(self, capsys):
        code = run(["delta", "--left", "1,1", "--right", "2,2"])
        assert code == 1


class TestConfig:
    def test_json_config_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "system": "original",
                    "A": 0.1,
                    "B": 0.1,
                    "alpha": 0.5,
                    "left": "2,1",
                    "right": "1,2",
                }
            )
        )
        # the flag overrides the config's system
        assert run(["classify", "--config", str(cfg), "--system", "perturbed"]) == 0
        assert "region: SS" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"system": "original", "gamma": 1.4}))
        assert run(["classify", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{ not json")
        assert run(["classify", "--config", str(cfg)]) == 1
        assert "line" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        assert run(["classify", "--system", "original", "--left", "2,1"]) == 1

    def test_bad_state_string(self, capsys):
        assert (
            run(
                [
                    "classify",
                    "--system",
                    "original",
                    "--A",
                    "0.1",
                    "--B",
                    "0.1",
                    "--alpha",
                    "0.5",
                    "--left",
                    "nope",
                    "--right",
                    "1,2",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize("state", [[1], "x", [1, "2"], [True, 2], {"u": 1, "rho": 2}])
    def test_config_state_not_a_pair_of_numbers(self, tmp_path, capsys, state):
        cfg = tmp_path / "c.json"
        opts = {"system": "perturbed", "A": 0.1, "B": 0.1, "alpha": 0.5}
        cfg.write_text(json.dumps({**opts, "left": "1,1", "right": state}))
        assert run(["classify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: right: ")

    def test_config_integer_state_becomes_float(self, tmp_path, monkeypatch):
        seen = []
        solve_perturbed = perturbed.solve_perturbed

        def recording_solve(params, left, right):
            seen.extend((left, right))
            return solve_perturbed(params, left, right)

        monkeypatch.setattr(perturbed, "solve_perturbed", recording_solve)
        cfg = tmp_path / "c.json"
        opts = {"system": "perturbed", "A": 0.1, "B": 0.1, "alpha": 0.5}
        cfg.write_text(json.dumps({**opts, "left": [1, 2], "right": [2.0, 1]}))
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert seen == [State(1.0, 2.0), State(2.0, 1.0)]
        assert all(type(v) is float for s in seen for v in (s.u, s.rho))

    def test_bracket_failure_reports_error(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise BracketError("no sign change found while growing upper bound")

        monkeypatch.setattr(original, "solve_decreasing", fail)
        argv = ["solve", "--system", "original", *BASE, "--out", str(tmp_path)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: no sign change")

    def test_start_imports_no_scipy(self):
        code = (
            "import sys, awrlab, awrlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert fresh_python(code).strip() == "[]"

    def test_only_array_commands_import_numpy(self, tmp_path):
        commands = [
            ["solve", "--system", "perturbed", "--samples", "11"],
            ["classify", "--system", "original"],
            ["sweep", "--system", "original"],
            ["delta"],
            # refused on its options before it computes anything
            ["weakcheck", "--bumps", "0"],
        ]
        simulate = ["simulate", "--system", "original", "--grid", "20", "--T", "0.05"]
        code = f"""
import contextlib, io, sys, awrlab, awrlab.cli
def numpy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return awrlab.cli.run(argv + {BASE!r} + ["--out", {str(tmp_path)!r}])
print(numpy_modules())
for argv in {commands!r}:
    print(argv[0], run(argv), numpy_modules())
print("simulate", run({simulate!r}), "numpy" in sys.modules)
"""
        assert fresh_python(code).splitlines() == [
            "[]",
            "solve 0 []",
            "classify 0 []",
            "sweep 0 []",
            "delta 0 []",
            "weakcheck 1 []",
            "simulate 0 True",
        ]

    def test_fv_names_resolve_on_the_package(self):
        assert awrlab.fv is fv
        for name in ("FieldSnapshot", "GridConfig", "delta_weight_estimate",
                     "l1_error_vs_exact", "simulate"):
            assert getattr(awrlab, name) is getattr(fv, name)

    def test_unknown_package_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            awrlab.no_such_name

    @pytest.mark.parametrize(
        ("argv", "key", "least"),
        [
            (["solve", "--system", "original", "--samples", "0"], "samples", 2),
            (["solve", "--system", "original", "--samples", "1"], "samples", 2),
            (["solve", "--system", "original", "--samples", "-1"], "samples", 2),
            (["weakcheck", "--bumps", "0"], "bumps", 1),
            (["weakcheck", "--bumps", "-1"], "bumps", 1),
        ],
    )
    def test_count_options_bounded(self, tmp_path, capsys, argv, key, least):
        assert run([*argv, *BASE, "--out", str(tmp_path)]) == 1
        expected = f"error: {key} must be an integer >= {least}, got {argv[-1]}\n"
        assert capsys.readouterr().err == expected

    def test_config_count_must_be_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": True}))
        argv = ["solve", "--config", str(cfg), "--system", "original", *BASE]
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: samples must be an integer >= 2, got True\n"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        env_out = str(tmp_path / "envout")
        monkeypatch.setenv("AWRLAB_OUT", env_out)
        assert (
            run(["delta", "--left", "2,1", "--right", "1,2"]) == 0
        )
        assert os.path.exists(os.path.join(env_out, "delta.csv"))
