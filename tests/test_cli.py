"""Command-line interface: subcommands, config handling, outputs, exit codes."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import awrlab
from awrlab import core, fv, original, perturbed, transport
from awrlab.core import PressureParams, State
from awrlab.cli import _linspace, _wave_window, run
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
# a command that reads each numeric option, with its other required flags
NUMERIC_COMMANDS = {
    "xmin": ["simulate", "--system", "original", "--grid", "20", "--T", "0.05"],
    "tol": ["weakcheck", "--bumps", "1"],
    "seed": ["weakcheck", "--bumps", "1"],
}
# a command that reads each non-numeric option, and what its value must be
OTHER_OPTIONS = {
    "schedule": (["sweep", "--system", "original"], "a 'lo:hi[:n]' string or a list of numbers"),
    "snapshot_times": (NUMERIC_COMMANDS["xmin"], "a list of numbers"),
    "out": (["delta"], "a string"),
    "kind": (["delta"], "one of transport, special, both"),
}


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

    @pytest.mark.parametrize(
        "argv",
        [
            # the original star density lies below the least positive double
            ["--system", "original", "--A", "2.927e-7", "--B", "0.14828", "--alpha", "1.918e-4",
             "--left", "362.32,63.137", "--right", "195889.7,7.359e7"],
            # the perturbed curves meet at a subnormal star density, past where
            # e^(-alpha*t) overflows at alpha = 0.99
            ["--system", "perturbed", "--A", "1e-300", "--B", "1e-300", "--alpha", "0.99",
             "--left", "1,1", "--right", "1e10,1"],
        ],
    )
    def test_deep_data_end_in_at_most_one_error_line(self, tmp_path, capsys, argv):
        code = run(["solve", *argv, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and err.count("error: ") == 1 and "Traceback" not in err
        assert err.startswith("error: the star density underflows: log10(rho*) = -3")

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

    def test_end_time_below_the_clock_slack_takes_a_step(self, tmp_path):
        # T below the clock's slack of 1e-14 once wrote the initial data at t = 0
        out = str(tmp_path / "sim")
        args = ["--A", "0.1", "--B", "0.1", "--alpha", "0.37", "--left", "2,1", "--right", "1,2"]
        assert run(["simulate", "--system", "original", *args, "--grid", "16", "--T", "1e-15",
                    "--out", out]) == 0
        rows = read(os.path.join(out, "snapshot_t0.csv")).strip().split("\n")[1:]
        assert len(rows) == 16 and {float(row.split(",")[-1]) for row in rows} == {1e-15}

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

    def test_overflowing_state_is_refused_before_any_file(self, tmp_path, capsys):
        # the flux of rho = u = 1e150 overflows, so the second step's wave
        # speed bound is NaN; numpy once warned on the way there
        error = "wave speed bound nan at t = 7.8125e-152 after 1 step(s)"
        self.check_refused(tmp_path, capsys, ["--left", "1e150,1e150"], error)

    @pytest.mark.parametrize(
        ("flags", "error"),
        [
            (["--left", "2,1e200"], "wave speed bound inf at t = 0.0 after 0 step(s)"),
            # the one step to T leaves NaN fields, which were once written out
            (["--A", "1e-310", "--B", "1e-310", "--left", "1.5,1e308", "--T", "0.01"],
             "fields not finite at t = 0.01 after 1 step(s)"),
            # an infinite dx, and 16 cells with 2 distinct centres
            (["--xmin=-1e308", "--xmax", "1e308"], "domain width 1e+308 - (-1e+308) overflows"),
            (["--xmin", "1", "--xmax", "1.0000000000000002"],
             "cell centres collide: cells too narrow at x = 1.0"),
        ],
        ids=["bound-inf", "last-step", "wide", "narrow"],
    )
    def test_overflow_or_degenerate_grid_is_refused_before_any_file(
        self, tmp_path, capsys, flags, error
    ):
        self.check_refused(tmp_path, capsys, flags, error)

    @staticmethod
    def check_refused(tmp_path, capsys, flags, error):
        """One error line, exit status 1, no warning and no output."""
        out = tmp_path / "sim"
        argv = [
            "simulate", "--system", "original", "--A", "0.1", "--B", "0.1", "--alpha", "0.37",
            "--left", "1,1", "--right", "1,1", "--grid", "16", "--T", "0.1", *flags,
            "--out", str(out),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


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

    def test_loads_no_numpy_and_draws_the_centres_of_numpy(self, tmp_path):
        # each seed's bump centres are the draws of numpy's legacy generator
        generators = {
            0: np.random.RandomState(0),
            3: np.random.RandomState(3),
            7: np.random.RandomState(7),
            4294967295: np.random.RandomState(4294967295),
        }
        seeds = tuple(generators)
        argv = ["weakcheck", *BASE, "--bumps", "3"]
        code = f"""
import contextlib, io, sys, awrlab.cli
for seed in {seeds!r}:
    out = {str(tmp_path)!r} + "/w" + str(seed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = awrlab.cli.run({argv!r} + ["--seed", str(seed), "--out", out])
    print(code, "numpy" in sys.modules)
"""
        assert fresh_python(code).splitlines() == ["0 False"] * len(seeds)
        params = PressureParams(0.1, 0.1, 0.5, system="perturbed")
        lo, hi = _wave_window(perturbed.solve_perturbed(params, State(2, 1), State(1, 2)))
        for seed, rng in generators.items():
            expected = sorted(rng.uniform(lo + 1.0, hi - 1.0, size=3).tolist())
            lines = read(tmp_path / f"w{seed}" / "weakcheck.csv").splitlines()[1:]
            assert [float(line.split(",")[0]) for line in lines] == expected


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

    def test_non_compressive_data_errors(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run(["delta", "--left", "1,1", "--right", "2,2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: delta shocks require u+ < u-\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep"], ["simulate", "--grid", "20", "--T", "0.1"]],
        ids=["sweep", "simulate"],
    )
    def test_pressured_commands_refuse_transport(self, tmp_path, capsys, argv):
        out = tmp_path / "t"
        assert run([*argv, "--system", "transport", *BASE, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {argv[0]} requires a pressured system (original|perturbed)\n"
        )
        assert not out.exists()


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

        # the star state's root finder, which every original solve with u+ != u- runs
        monkeypatch.setattr(original, "safeguarded_newton", fail)
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

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["solve", "--system", "perturbed", "--samples", "11"],
            ["classify", "--system", "original"],
            ["sweep", "--system", "perturbed"],
            ["delta"],
            ["weakcheck", "--bumps", "2", "--seed", "7"],
        ],
        ids=["import", "solve", "classify", "sweep", "delta", "weakcheck"],
    )
    def test_no_dataclasses_or_inspect(self, tmp_path, argv):
        # the value types are records built without dataclasses, whose
        # import pulls in inspect, dis, ast and tokenize
        command = "" if argv is None else f"""
import contextlib, io, awrlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert awrlab.cli.run({argv!r} + {BASE!r} + ["--out", {str(tmp_path)!r}]) == 0
"""
        code = f"""import sys, awrlab
{command}
print(sorted({{"dataclasses", "inspect"}} & set(sys.modules)))
"""
        assert fresh_python(code).strip() == "[]"

    def test_import_loads_core_only(self):
        code = "import sys, awrlab; print(sorted(m for m in sys.modules if m.startswith('awrlab')))"
        assert fresh_python(code).strip() == "['awrlab', 'awrlab.core']"

    @pytest.mark.parametrize(
        ("argv", "loaded", "absent"),
        [
            (["classify", "--system", "original"], {"original"},
             {"perturbed", "quadrature", "transport"}),
            (["delta"], {"transport"}, {"original", "perturbed", "rootfind"}),
            (["solve", "--system", "transport", "--samples", "11"], {"transport"},
             {"original", "perturbed"}),
            (["simulate", "--system", "original", "--grid", "20", "--T", "0.05"], {"fv"},
             {"original", "perturbed", "transport", "rootfind"}),
            (["sweep", "--system", "original"], {"original", "transport"}, {"perturbed"}),
        ],
        ids=["classify-original", "delta", "solve-transport", "simulate", "sweep-original"],
    )
    def test_command_imports_only_what_it_runs(self, tmp_path, argv, loaded, absent):
        code = f"""
import contextlib, io, sys, awrlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = awrlab.cli.run({argv!r} + {BASE!r} + ["--out", {str(tmp_path)!r}])
print(code, *sorted(m.split('.')[1] for m in sys.modules if m.startswith('awrlab.')))
"""
        code, *modules = fresh_python(code).split()
        assert code == "0"
        assert loaded <= set(modules)
        assert not absent & set(modules)

    def test_fv_names_resolve_on_the_package(self):
        # every name the package exports, written out rather than read from its table
        exported = {
            core: (
                "ORIGINAL", "PERTURBED", "TRANSPORT", "BranchError", "Conserved",
                "DegenerateDensityError", "InapplicableError", "NoThresholdError",
                "PressureParams", "State", "WaveSpeedPair", "eigenvalues_original",
                "eigenvalues_perturbed", "from_conserved", "genuine_nonlinearity_original",
                "pressure", "to_conserved",
            ),
            original: ("RegionLabel14", "RiemannSolution14", "classify", "solve", "threshold_A0"),
            perturbed: (
                "BumpTestFunction", "RegionLabel17", "RiemannSolution17", "classify_perturbed",
                "solve_perturbed", "weak_form_residual",
            ),
            transport: (
                "DeltaShock", "EntropyClass", "SweepRecord", "SweepReport", "TransportSolution",
                "Verdict", "default_schedule", "entropy_check", "grh_residual",
                "limit_delta_consistency", "special_delta", "sweep_original", "sweep_perturbed",
                "transport_solve",
            ),
            fv: ("FieldSnapshot", "GridConfig", "delta_weight_estimate", "l1_error_vs_exact",
                 "simulate"),
        }
        listed = dir(awrlab)
        for module, names in exported.items():
            submodule = module.__name__.split(".")[1]
            assert getattr(awrlab, submodule) is module
            assert submodule in listed
            for name in names:
                assert getattr(awrlab, name) is getattr(module, name), name
                assert name in listed, name

    def test_bracket_error_is_one_class(self):
        # rootfind raises the class core defines, which the CLI catches
        from awrlab import rootfind

        assert rootfind.BracketError is core.BracketError is BracketError

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
            (["simulate", "--system", "original", "--T", "0.05", "--grid", "15"], "grid", 16),
            (["simulate", "--system", "original", "--T", "0.05", "--grid", "0"], "grid", 16),
        ],
    )
    def test_count_options_bounded(self, tmp_path, capsys, argv, key, least):
        assert run([*argv, *BASE, "--out", str(tmp_path)]) == 1
        expected = f"error: {key} must be an integer >= {least}, got {argv[-1]}\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize(
        ("flags", "expected"),
        [
            (["--cfl", "2"], "cfl must be a number in (0, 0.9], got 2.0"),
            (["--cfl", "0"], "cfl must be a number in (0, 0.9], got 0.0"),
            (["--T", "-1"], "T must be a number in (0, inf), got -1.0"),
            (["--T", "0"], "T must be a number in (0, inf), got 0.0"),
            (["--xmin", "2", "--xmax", "1"], "xmin must lie below xmax, got 2.0 and 1.0"),
            (["--xmin", "1", "--xmax", "1"], "xmin must lie below xmax, got 1.0 and 1.0"),
        ],
    )
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_grid_options_bounded(self, tmp_path, capsys, flags, expected, given):
        # the bounds fv.GridConfig also checks, refused with the option's name
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({k[2:]: float(v) for k, v in zip(flags[::2], flags[1::2])}))
        source = flags if given == "flag" else ["--config", str(cfg)]
        end = [] if "--T" in flags else ["--T", "0.1"]
        argv = ["simulate", "--system", "original", "--grid", "20", *end, *BASE]
        assert run([*argv, *source, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "o").exists()

    def test_config_count_must_be_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"samples": True}))
        argv = ["solve", "--config", str(cfg), "--system", "original", *BASE]
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: samples must be an integer >= 2, got True\n"

    @pytest.mark.parametrize("key", ["xmin", "tol", "seed"])
    @pytest.mark.parametrize("value", [[1], True, "1"])
    def test_config_number_of_another_type_refused(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        argv = [*NUMERIC_COMMANDS[key], "--config", str(cfg), *BASE, "--out", str(tmp_path)]
        assert run(argv) == 1
        kind = "an integer" if key == "seed" else "a number"
        assert capsys.readouterr().err == f"error: {key} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize("key", ["xmin", "tol", "seed"])
    def test_config_null_number_takes_the_default(self, tmp_path, key):
        outputs = []
        for opts in ({key: None}, {}):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(opts))
            out = tmp_path / f"out{len(outputs)}"
            argv = [*NUMERIC_COMMANDS[key], "--config", str(cfg), *BASE, "--out", str(out)]
            assert run(argv) == 0
            outputs.append({name: read(out / name) for name in os.listdir(out)})
        assert outputs[0] and outputs[0] == outputs[1]

    def test_config_null_required_number_is_missing(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"T": None}))
        argv = [*NUMERIC_COMMANDS["xmin"][:-2], "--config", str(cfg), *BASE]
        assert run([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: missing required option --T\n"

    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("schedule", 0.1),
            ("schedule", [0.1, "a"]),
            ("snapshot_times", 5),
            ("snapshot_times", [0.1, "a"]),
            ("snapshot_times", [True]),
            ("out", 5),
            ("kind", "foo"),
            ("kind", ["both"]),
        ],
    )
    def test_config_value_of_another_type_refused(self, tmp_path, capsys, key, value):
        command, expected = OTHER_OPTIONS[key]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        out = [] if key == "out" else ["--out", str(tmp_path)]
        assert run([*command, "--config", str(cfg), *BASE, *out]) == 1
        assert capsys.readouterr().err == f"error: {key} must be {expected}, got {value!r}\n"

    @pytest.mark.parametrize("key", ["schedule", "snapshot_times", "kind"])
    def test_config_null_option_takes_the_default(self, tmp_path, key):
        outputs = []
        for opts in ({key: None}, {}):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(opts))
            out = tmp_path / f"out{len(outputs)}"
            argv = [*OTHER_OPTIONS[key][0], "--config", str(cfg), *BASE, "--out", str(out)]
            assert run(argv) == 0
            outputs.append({name: read(out / name) for name in os.listdir(out)})
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("schedule", ["1e-1:1e-6:1", "1e-1:1e-6:0", "1e-1:1e-6:-3", [0.1]])
    def test_one_value_sweep_refused(self, tmp_path, capsys, schedule):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schedule": schedule}))
        given = ["--schedule", schedule] if isinstance(schedule, str) else ["--config", str(cfg)]
        argv = ["sweep", "--system", "perturbed", *given, *BASE]
        assert run([*argv, "--out", str(tmp_path / "s")]) == 1
        captured = capsys.readouterr()
        assert "needs at least two values" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "schedule",
        ["1e-1:1e-6:nan", "1e-1:1e-6:2.5", "inf:1e-6", "1e-1:nan", "1e-6:1e-1", "1e-1", "a:b",
         "1e-1:1e-6:6:2"],
    )
    def test_schedule_string_errors_name_the_key(self, tmp_path, capsys, schedule):
        argv = ["sweep", "--system", "perturbed", "--schedule", schedule, *BASE]
        assert run([*argv, "--out", str(tmp_path / "s")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: schedule")
        assert captured.out == ""
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("key", ["xmin", "tol"])
    @pytest.mark.parametrize(
        ("literal", "parsed"),
        [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")],
    )
    def test_non_finite_number_refused(self, tmp_path, capsys, given, key, literal, parsed):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{key}": {literal}}}')
        source = [f"--{key}={literal}"] if given == "flag" else ["--config", str(cfg)]
        argv = [*NUMERIC_COMMANDS[key], *source, *BASE, "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {key} must be a number, got {parsed}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        ("key", "literal"),
        [("snapshot_times", "[NaN]"), ("snapshot_times", "[0.1, 1e400]"),
         ("schedule", "[0.1, -Infinity]")],
    )
    def test_non_finite_list_entry_refused(self, tmp_path, capsys, key, literal):
        command, expected = OTHER_OPTIONS[key]
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{key}": {literal}}}')
        assert run([*command, "--config", str(cfg), *BASE, "--out", str(tmp_path)]) == 1
        value = json.loads(literal)
        assert capsys.readouterr().err == f"error: {key} must be {expected}, got {value!r}\n"

    @pytest.mark.parametrize(
        ("times", "T"), [([0.0200001, 0.0200004], "0.05"), ([0.0199999], "0.02")]
    )
    def test_snapshot_times_sharing_a_file_name_refused(self, tmp_path, capsys, times, T):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"snapshot_times": times}))
        argv = ["simulate", "--system", "original", "--grid", "20", "--T", T, *BASE]
        assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: snapshot_times: ")
        assert f"{times[0]!r} and " in captured.err and "snapshot_t0p02.csv" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_snapshot_time_after_the_end_refused(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"snapshot_times": [0.1, 0.5]}))
        argv = ["simulate", "--system", "original", "--grid", "20", "--T", "0.2", *BASE]
        assert run([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: snapshot_times: snapshot time 0.5 lies after the end time 0.2\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-1, 2**32, 2**70])
    def test_seed_outside_the_generator_range_refused(self, tmp_path, capsys, given, seed):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": seed}))
        source = [f"--seed={seed}"] if given == "flag" else ["--config", str(cfg)]
        argv = [*NUMERIC_COMMANDS["seed"], *source, *BASE, "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        expected = f"error: seed: must lie between 0 and 2**32 - 1, got {seed}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o").exists()

    def test_seed_is_a_flag_of_weakcheck_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--system", "original", *BASE, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("system", "code"), [("original", 0), ("transport", 1), ("perturbed", 0)]
    )
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_weakcheck_checks_the_perturbed_system_only(
        self, tmp_path, capsys, system, code, given
    ):
        # either pressured system, the perturbed one when none is given; the
        # transport system is refused as sweep and simulate refuse it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": system}))
        source = ["--system", system] if given == "flag" else ["--config", str(cfg)]
        argv = ["weakcheck", "--bumps", "1", *source, *BASE, "--out", str(tmp_path / "o")]
        assert run(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == "error: weakcheck requires a pressured system (original|perturbed)\n"
            return
        default = ["weakcheck", "--bumps", "1", *BASE, "--out", str(tmp_path / "d")]
        assert run(default) == 0
        same = read(tmp_path / "o" / "weakcheck.csv") == read(tmp_path / "d" / "weakcheck.csv")
        assert same == (system == "perturbed")

    @pytest.mark.parametrize(
        "key",
        ["system", "A", "B", "alpha", "left", "right", "out", "seed", "samples", "schedule",
         "grid", "cfl", "T", "xmin", "xmax", "log_density", "tol", "bumps", "kind",
         "snapshot_times"],
    )
    def test_every_option_checked_whatever_the_command(self, tmp_path, capsys, key):
        # no option takes a JSON object, and classify reads few of them
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: {"x": 1}}))
        assert run(["classify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}")

    @pytest.mark.parametrize("config", ["[1, 2]", "5", '"A"'])
    def test_config_that_is_not_an_object_refused(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(config)
        assert run(["classify", "--config", str(cfg)]) == 1
        assert "expected a JSON object" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        env_out = str(tmp_path / "envout")
        monkeypatch.setenv("AWRLAB_OUT", env_out)
        assert (
            run(["delta", "--left", "2,1", "--right", "1,2"]) == 0
        )
        assert os.path.exists(os.path.join(env_out, "delta.csv"))
