import logging
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sqcavity import (
    ConfigError,
    CutoffTooSmallError,
    FieldSpace,
    NonUniqueSteadyStateError,
    SpaceDims,
    SqueezedBath,
    SweepConfig,
    SystemParams,
    _blas,
    build_liouvillian,
    load_config,
    solvers,
    steady_state,
)
from sqcavity import liouvillian
from sqcavity import sweep as sweep_module
from sqcavity.cli import build_parser, main, resolve_config
from sqcavity.sweep import (
    _atomic_write,
    default_r_grid,
    run_bogoliubov_check,
    run_distribution,
    run_moments_sweep,
    run_wigner,
)
from conftest import squeezed_photon_numbers
from test_solvers import zero_generator


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# empty-cavity moments sweep
mode = moments_sweep
r_values = 0, 0.3
atom_present = false
fock_cutoff = 25
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "sweep.cfg", BASE_CONFIG))
        assert cfg.mode == "moments_sweep"
        assert cfg.r_values == (0.0, 0.3)
        assert cfg.atom_present is False
        assert cfg.fock_cutoff == 25
        assert cfg.g0 == 15.0  # default untouched

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "fock_cutof = 10\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_key_given_twice_rejected(self, tmp_path):
        path = write_config(tmp_path / "twice.cfg",
                            "fock_cutoff = 30\nr_values = 0.1\nfock_cutoff = 20\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:3: key 'fock_cutoff' is given twice, on lines 1 and 3")):
            load_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "atom_present = maybe\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_grid(self):
        cfg = SweepConfig().validate()
        grid = default_r_grid()
        assert len(grid) == 31
        assert cfg.r_values == tuple(grid)
        assert grid[0] == 0.0 and grid[-1] == 1.5

    def test_distribution_default_r_values(self):
        cfg = SweepConfig(mode="distribution").validate()
        assert cfg.r_values == (0.25, 0.5, 1.0)

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            SweepConfig(mode="plot_everything").validate()

    def test_negative_r_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(r_values=(-0.1,)).validate()

    def test_validate_gives_the_declared_types(self):
        cfg = SweepConfig(r_values=tuple(np.linspace(0, 0.2, 2)), phi=np.float64(0.5),
                          fock_cutoff=np.int64(20), atom_present=np.bool_(False)).validate()
        assert [type(r) for r in cfg.r_values] == [float, float]
        assert type(cfg.phi) is float and type(cfg.fock_cutoff) is int
        assert cfg.atom_present is False
        assert cfg.resolved()["r_values"] == "0.0,0.2"  # loadable, not np.float64(0.0)

    @pytest.mark.parametrize("field, value", [
        ("fock_cutoff", 20.5), ("guard", 4.5), ("wigner_points", "many"),
        ("atom_present", 0.5), ("r_values", 0.3), ("g0", None),
    ])
    def test_value_not_of_the_declared_type_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"^bad value for {field}: "):
            replace(SweepConfig(), **{field: value}).validate()

    def test_header_echo_loads_back_to_the_same_config(self, tmp_path):
        cfg = SweepConfig(
            mode="wigner", r_values=(0.1, 0.35), phi=0.25, g0=3.5, gamma=0.5, kappa=2.0,
            delta_a=0.1, delta_c=-0.2, atom_present=False, fock_cutoff=30, guard=5,
            epsilon=1e-9, wigner_extent=4.0, wigner_points=21,
            output_path=str(tmp_path / "runs#3" / "grids"),
        ).validate()
        assert all(getattr(cfg, f.name) != f.default for f in fields(SweepConfig))
        out = tmp_path / "echo.csv"
        sweep_module._write_csv(out, cfg, ("r",), [])
        echo = [line[2:] for line in out.read_text().splitlines()
                if line.startswith("# ") and " = " in line]
        loaded = load_config(write_config(tmp_path / "echo.cfg", "\n".join(echo)))
        assert loaded.resolved() == cfg.resolved()
        assert loaded == cfg

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        keys = re.search(r"Keys:(.*?)\.\s", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", keys) == [f.name for f in fields(SweepConfig)]


class TestMomentsSweep:
    def test_vacuum_row(self, tmp_path):
        cfg = SweepConfig(
            r_values=(0.0,), atom_present=False, fock_cutoff=20,
            output_path=str(tmp_path / "m.csv"),
        ).validate()
        (row,) = run_moments_sweep(cfg)
        assert row["mean_n"] == pytest.approx(0.0, abs=1e-10)
        assert row["P0"] == pytest.approx(1.0, abs=1e-10)
        assert row["abs_aa"] == pytest.approx(0.0, abs=1e-10)
        assert row["rho_ee"] == 0.0

    def test_squeezed_row_values(self, tmp_path):
        cfg = SweepConfig(
            r_values=(1.0,), atom_present=False, fock_cutoff=90, guard=10,
            output_path=str(tmp_path / "m.csv"),
        ).validate()
        (row,) = run_moments_sweep(cfg)
        assert row["mean_n"] == pytest.approx(np.sinh(1.0) ** 2, abs=1e-6)
        assert row["P1"] < 1e-10

    def test_output_is_deterministic(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = SweepConfig(
            r_values=(0.0, 0.3), atom_present=False, fock_cutoff=25,
            output_path=str(out),
        ).validate()
        run_moments_sweep(cfg)
        first = out.read_bytes()
        run_moments_sweep(cfg)
        assert out.read_bytes() == first

    def test_header_echoes_resolved_config(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = SweepConfig(
            r_values=(0.2,), atom_present=False, fock_cutoff=25, output_path=str(out)
        ).validate()
        run_moments_sweep(cfg)
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        keys = {line.split("=")[0].strip("# ") for line in header if "=" in line}
        assert keys >= {"mode", "r_values", "g0", "gamma", "kappa", "fock_cutoff",
                        "guard", "epsilon", "atom_present", "output_path"}


class TestDistribution:
    def test_normalization_per_file(self, tmp_path):
        cfg = SweepConfig(
            mode="distribution", r_values=(0.8,), atom_present=False,
            fock_cutoff=60, guard=10, output_path=str(tmp_path / "dist"),
        ).validate()
        data = run_distribution(cfg)
        res = data[0.8]
        assert res["probabilities"].sum() + res["tail_mass"] == pytest.approx(1.0, abs=1e-8)
        assert (tmp_path / "dist" / "distribution_r0.8.csv").exists()

    def test_matches_closed_form(self, tmp_path):
        cfg = SweepConfig(
            mode="distribution", r_values=(1.0,), atom_present=False,
            fock_cutoff=90, guard=10, output_path=str(tmp_path / "dist"),
        ).validate()
        probs = run_distribution(cfg)[1.0]["probabilities"]
        expected = squeezed_photon_numbers(1.0, probs.size)
        assert np.abs(probs - expected).max() < 1e-6

    def test_odd_population_grows_with_r(self, tmp_path):
        cfg = SweepConfig(
            mode="distribution", r_values=(0.25, 0.5, 1.0), g0=15.0, gamma=1.0,
            fock_cutoff=90, guard=10, output_path=str(tmp_path / "dist"),
        ).validate()
        data = run_distribution(cfg)
        odd_mass = [data[r]["probabilities"][1::2].sum() for r in (0.25, 0.5, 1.0)]
        assert odd_mass[0] < odd_mass[1] < odd_mass[2]
        assert all(m > 1e-3 for m in odd_mass)


class TestWignerMode:
    def test_grid_file_layout(self, tmp_path):
        cfg = SweepConfig(
            mode="wigner", r_values=(0.0,), atom_present=False, fock_cutoff=15,
            wigner_extent=3.0, wigner_points=21, output_path=str(tmp_path / "wg"),
        ).validate()
        grids = run_wigner(cfg)
        assert grids[0.0].values[10, 10] == pytest.approx(1 / np.pi, abs=1e-8)
        path = tmp_path / "wg" / "wigner_r0_empty.csv"
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 22  # axis row + 21 value rows
        assert all(len(r.split(",")) == 22 for r in rows)
        for row, q, values in zip(rows[1:], grids[0.0].q_axis, grids[0.0].values):
            assert row == ",".join(sweep_module.FLOAT_FMT % v for v in (q, *values))

    def test_float_row_in_one_format_call_is_written_cell_by_cell(self):
        values = np.array([0.0, -0.0, 1e-300, -2.5, np.inf, -np.inf, np.nan, 1 / 3])
        assert (sweep_module._format_row(values)
                == ",".join(map(sweep_module._format_cell, values)))
        # a row holding an int or a bool keeps its integer cells
        assert sweep_module._format_row([3, 0.5, True]) == "3,5.000000000000e-01,1"

    def test_logs_one_record_per_grid(self, tmp_path, caplog):
        cfg = SweepConfig(mode="wigner", r_values=(0.1, 0.3), atom_present=False,
                          fock_cutoff=20, wigner_extent=3.0, wigner_points=11,
                          output_path=str(tmp_path)).validate()
        files = [tmp_path / f"wigner_r{r:g}_empty.csv" for r in (0.1, 0.3)]
        run_wigner(cfg)
        quiet = [path.read_bytes() for path in files]
        with caplog.at_level(logging.DEBUG, logger="sqcavity.sweep"):
            run_wigner(cfg)
        records = [r.getMessage() for r in caplog.records
                   if r.name == "sqcavity.sweep" and r.getMessage().startswith("wigner ")]
        # largest r first, as the points are solved
        assert len(records) == 2
        for message, r in zip(records, (0.3, 0.1)):
            assert re.fullmatch(rf"wigner r = {r!r}: 11 x 11 grid, \d+\.\d{{3}} s", message)
        assert [path.read_bytes() for path in files] == quiet


class TestBogoliubovMode:
    def test_cross_frame_agreement(self, tmp_path):
        cfg = SweepConfig(
            mode="bogoliubov_check", r_values=(0.0, 0.5), g0=5.0, gamma=1.0,
            fock_cutoff=50, output_path=str(tmp_path / "bog.csv"),
        ).validate()
        rows = run_bogoliubov_check(cfg)
        assert all(row["passed"] for row in rows)
        assert rows[0]["discrepancy"] < 1e-12  # identical generators at r=0

    def test_nonzero_phase_unsupported(self, tmp_path, monkeypatch):
        from sqcavity import UnsupportedFrameError

        # refused before either frame is factorized; so is a detuned model
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        for model in (dict(phi=0.3), dict(delta_a=0.2), dict(delta_c=-0.1)):
            cfg = SweepConfig(
                mode="bogoliubov_check", r_values=(0.2,), fock_cutoff=20,
                output_path=str(tmp_path / "bog.csv"), **model,
            ).validate()
            with pytest.raises(UnsupportedFrameError):
                run_bogoliubov_check(cfg)


class TestCli:
    def test_successful_run(self, tmp_path):
        cfg_path = write_config(tmp_path / "sweep.cfg", BASE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["--config", cfg_path, "--out", str(out)]) == 0
        assert out.exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path / "sweep.cfg", BASE_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["--config", cfg_path, "--r", "0.1", "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 2  # column header + one row

    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path / "bad.cfg", "mode = nonsense\n")
        assert main(["--config", bad]) == 2

    def test_overflowing_squeezing_exit_code(self, tmp_path, capsys):
        # the bath's N = sinh²r overflows: a config error, and no numpy
        # overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--no-atom", "--r", "800", "--cutoff", "20", "--guard", "2",
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: squeezing strength r = 800.0 overflows the bath")
        assert not (tmp_path / "x.csv").exists()

    def test_generator_overflowing_squeezing_exit_code(self, tmp_path, capsys):
        # the bath at r = 355 is finite but its generator is not: a solver
        # error naming the point is the only report, with no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--no-atom", "--r", "355", "--cutoff", "20", "--guard", "2",
                         "--out", str(tmp_path / "x.csv")]) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("solver error: at r = 355.0: generator is not trace-preserving")
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("target, stage", [("_block", "block"), ("spsolve", "LU")])
    def test_out_of_memory_exit_code(self, target, stage, tmp_path, capsys, monkeypatch):
        # a MemoryError, raised here by a stand-in, names the point, the
        # stage and the fold's 110 unknowns: 10 states of each parity, of
        # whose pairs 55 are representatives
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(solvers, target, out_of_memory)
        assert main(["--no-atom", "--r", "0.3", "--cutoff", "20",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            f"solver error: at r = 0.3: out of memory in stage {stage!r} of a fold of 110 "
            "unknowns; lower the cutoff, or set SIM_THREADS=1 to solve one point at a time\n")
        assert not (tmp_path / "x.csv").exists()

    def test_truncation_error_exit_code(self, tmp_path):
        assert main([
            "--mode", "moments_sweep", "--no-atom", "--r", "1.2",
            "--cutoff", "20", "--out", str(tmp_path / "x.csv"),
        ]) == 4
        assert not (tmp_path / "x.csv").exists()  # no partial output

    def test_wigner_mode_uses_configured_guard(self, tmp_path):
        # the tail mass is 1.9e-9 over the top 4 levels but 1.7e-8 over the
        # default guard band of 8
        argv = ["--no-atom", "--r", "0.7", "--cutoff", "40", "--guard", "4"]
        assert main([*argv, "--mode", "moments_sweep", "--out", str(tmp_path / "m.csv")]) == 0
        assert main([*argv, "--mode", "wigner", "--out", str(tmp_path / "wg")]) == 0
        assert (tmp_path / "wg" / "wigner_r0.7_empty.csv").exists()

    def test_solver_error_exit_code(self, tmp_path):
        # bogoliubov mode at nonzero phase surfaces an unsupported-frame error
        assert main([
            "--mode", "bogoliubov_check", "--no-atom", "--r", "0.3", "--phi", "0.5",
            "--cutoff", "20", "--out", str(tmp_path / "b.csv"),
        ]) == 3

    def test_malformed_r_exit_code(self, capsys):
        assert main(["--r", "0.1,abc"]) == 2
        assert "bad --r value" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--cutoff", "20.5"), ("--guard", "abc"), ("--g0", "strong"), ("--epsilon", ""),
    ])
    def test_flag_value_that_does_not_parse_names_the_flag(self, flag, value, capsys):
        assert main([flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: bad {flag} value: ")

    @pytest.mark.parametrize("mode", ["distribution", "wigner"])
    def test_per_r_files_must_not_share_a_name(self, tmp_path, monkeypatch, capsys, mode):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the config was refused")

        monkeypatch.setattr(sweep_module, "steady_state", no_solve)
        out = tmp_path / "out"
        assert main(["--mode", mode, "--no-atom", "--r", "0.5,0.5000001,0.5",
                     "--cutoff", "40", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: r values 0.5, 0.5000001, 0.5 share file names; "
                              f"{mode} needs them distinct to 6 significant digits")
        assert not out.exists()
        # one output file takes any r values
        SweepConfig(r_values=(0.5, 0.5000001, 0.5)).validate()

    @pytest.mark.parametrize("argv, where", [
        (["--out", "taken"], "taken"),  # an existing directory
        (["--out", "file.txt/sub/m.csv"], "file.txt/sub/m.csv"),  # parent cannot be made
        (["--mode", "distribution", "--out", "file.txt"], "file.txt/distribution_r0.1.csv"),
    ])
    def test_unwritable_output_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv,
                                                 where):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(solvers, "spsolve", lambda *args: pytest.fail("factorized"))
        (tmp_path / "taken").mkdir()
        (tmp_path / "file.txt").write_text("")
        assert main(["--no-atom", "--r", "0.1", "--cutoff", "20", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {where}: ")
        assert ".tmp" not in err
        # a target that turns unwritable after the check is reported the same way
        with pytest.raises(ConfigError, match=f"^cannot write output {where}: ") as info:
            _atomic_write(Path(where), "")
        assert ".tmp" not in str(info.value)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["file.txt", "taken"]

    @pytest.mark.parametrize("argv, cfg_text", [
        (["--no-atom", "--g0", "-1"], None),
        (["--gamma", "-0.5"], None),
        (["--cutoff", "1"], None),
        (["--r", "0.2,-0.1"], None),
        (["--guard", "60"], None),
        (["--epsilon", "0"], None),
        ([], "kappa = 0\n"),
        ([], "atom_present = false\ngamma = -1\n"),
        (["--g0", "nan"], None),
        (["--gamma", "inf"], None),
        (["--phi", "nan"], None),
        (["--r", "nan"], None),
        (["--r", "inf"], None),
        (["--epsilon", "nan"], None),
        ([], "wigner_extent = nan\n"),
        ([], "kappa = inf\n"),
    ])
    def test_invalid_model_parameters_exit_code(self, tmp_path, argv, cfg_text, capsys):
        if cfg_text is not None:
            argv = ["--config", write_config(tmp_path / "bad.cfg", cfg_text), *argv]
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_cutoff_within_the_default_guard_exit_code(self, tmp_path, cutoff, capsys):
        assert main(["--no-atom", "--cutoff", str(cutoff), "--r", "0.1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: default guard")
        assert f"= 4 must satisfy 0 < guard < fock_cutoff = {cutoff}" in err
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_error_names_failing_point(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIM_THREADS", "2")
        cfg = SweepConfig(r_values=(0.1, 1.2), atom_present=False, fock_cutoff=20,
                          output_path=str(tmp_path / "m.csv")).validate()
        with pytest.raises(CutoffTooSmallError) as info:
            run_moments_sweep(cfg)
        assert str(info.value).startswith("at r = 1.2: tail mass")
        # the rule of suggest_fock_cutoff(1.2, 1e-8), not 1.5 x the cutoff
        assert info.value.suggested_cutoff == 130
        assert str(info.value).endswith("retry with cutoff >= 130")
        assert info.value.tail_mass > cfg.epsilon
        assert main(["--no-atom", "--r", "0.1,1.2", "--cutoff", "20",
                     "--out", str(tmp_path / "m.csv")]) == 4
        err = capsys.readouterr().err
        assert "at r = 1.2:" in err
        assert err.rstrip().endswith("retry with cutoff >= 130")

    def test_squeezing_beyond_the_cutoff_rule_exit_code(self, tmp_path, capsys):
        # above r ~ 19.1 tanh²r rounds to 1: the covering cutoff is the
        # largest suggestion, not a division by zero, and the sweep fails
        # on its first solve, where the tail check runs before the r = 20
        # state that cutoff 30 gives, with a minimum eigenvalue of about -1,
        # reaches the positivity check
        assert main(["--no-atom", "--r", "0.1,20", "--cutoff", "30",
                     "--out", str(tmp_path / "m.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation error: at r = 20.0: tail mass")
        assert err.rstrip().endswith("retry with cutoff >= 400")
        assert not (tmp_path / "m.csv").exists()

    def test_strong_squeezing_reaches_the_truncation_check(self, tmp_path, capsys):
        # the r = 6 generator has entries up to 4.6e6, and the round-off of
        # its trace row, 4.7e-10, is within the scale of steady_state's
        # trace check, so the cutoff is what fails
        assert main(["--no-atom", "--r", "0.1,6", "--cutoff", "30",
                     "--out", str(tmp_path / "m.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation error: at r = 6.0: tail mass")
        assert err.rstrip().endswith("retry with cutoff >= 400")
        assert not (tmp_path / "m.csv").exists()

    def test_bad_worker_count_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SIM_THREADS", "abc")
        out = tmp_path / "m.csv"
        assert main(["--no-atom", "--r", "0.1", "--cutoff", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: SIM_THREADS must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_a_config_error(self, workers, tmp_path, monkeypatch,
                                                      capsys):
        # refused before any point is solved, naming the variable and its value
        monkeypatch.setenv("SIM_THREADS", workers)
        monkeypatch.setattr(sweep_module, "steady_state",
                            lambda *args, **kwargs: pytest.fail("solved a point"))
        out = tmp_path / "m.csv"
        assert main(["--no-atom", "--r", "0.1", "--cutoff", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: SIM_THREADS must be an integer >= 1, got {workers!r}")
        assert not out.exists()


# each CLI flag with a value, and the SweepConfig field it must land in
CLI_FLAGS = [
    (["--mode", "wigner"], "mode", "wigner"),
    (["--r", "0.1, 0.2"], "r_values", (0.1, 0.2)),
    (["--g0", "3.5"], "g0", 3.5),
    (["--gamma", "0.5"], "gamma", 0.5),
    (["--phi", "0.25"], "phi", 0.25),
    (["--no-atom"], "atom_present", False),
    (["--cutoff", "30"], "fock_cutoff", 30),
    (["--guard", "5"], "guard", 5),
    (["--epsilon", "1e-6"], "epsilon", 1e-6),
    (["--out", "x.csv"], "output_path", "x.csv"),
]


@pytest.mark.parametrize("argv, field, value", CLI_FLAGS)
def test_cli_flag_sets_its_config_field(argv, field, value):
    config = resolve_config(build_parser().parse_args(argv))
    assert getattr(config, field) == value
    assert config == replace(SweepConfig(), **{field: value}).validate()


def test_cli_flag_table_covers_every_flag():
    flags = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert flags - {"-h", "--help", "--config"} == {argv[0] for argv, _, _ in CLI_FLAGS}


def test_concurrent_writes_leave_one_complete_file(tmp_path):
    path = tmp_path / "out.csv"
    texts = [f"writer {k}\n" * 20000 for k in range(8)]

    def writer(text):
        for _ in range(25):
            _atomic_write(path, text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(texts)) as pool:
            futures = [pool.submit(writer, text) for text in texts]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert path.read_text() in texts
    assert list(tmp_path.glob("*.tmp")) == []


def test_truncation_fails_on_the_largest_r_first(tmp_path, monkeypatch, capsys):
    # the tail grows with r: the first solve, at r = 1.2, fails, and the
    # suggestion covers the whole sweep
    monkeypatch.setenv("SIM_THREADS", "1")
    solved = []
    real = sweep_module.steady_state

    def spy(L, **kwargs):
        solved.append(L)
        return real(L, **kwargs)

    monkeypatch.setattr(sweep_module, "steady_state", spy)
    assert main(["--no-atom", "--r", "0.1,0.9,1.2", "--cutoff", "20",
                 "--out", str(tmp_path / "m.csv")]) == 4
    assert len(solved) == 1
    err = capsys.readouterr().err
    assert "at r = 1.2:" in err
    assert err.rstrip().endswith("retry with cutoff >= 130")
    assert not (tmp_path / "m.csv").exists()


def test_rows_keep_input_order(tmp_path):
    cfg = SweepConfig(r_values=(0.3, 0.0, 0.5, 0.1), atom_present=False, fock_cutoff=30,
                      output_path=str(tmp_path / "m.csv")).validate()
    rows = run_moments_sweep(cfg)
    assert [row["r"] for row in rows] == [0.3, 0.0, 0.5, 0.1]
    for row in rows:
        assert row["mean_n"] == pytest.approx(np.sinh(row["r"]) ** 2, abs=1e-8)


def test_sweep_logs_one_record_per_sweep_and_per_point(tmp_path, caplog):
    cfg = SweepConfig(r_values=(0.1, 0.3), atom_present=False, fock_cutoff=25,
                      output_path=str(tmp_path / "m.csv")).validate()
    with caplog.at_level(logging.DEBUG, logger="sqcavity.sweep"):
        run_moments_sweep(cfg)
    records = [r.getMessage() for r in caplog.records if r.name == "sqcavity.sweep"]
    assert len(records) == 3
    assert re.match(r"sweep of 2 points, 1 worker threads, up to \d+ LU threads each; BLAS ",
                    records[0])
    # largest r first; the 313 (25² / 2, rounded up) parity-sector unknowns
    # folded onto the 169 with N_i > N_j, or N_i = N_j and i <= j
    for message, r in zip(records[1:], (0.3, 0.1)):
        assert message.startswith(f"solved r = {r!r}: cutoff 25, guard 5, 169 LU unknowns, "
                                  "residual ")
        for field in ("min eigenvalue ", "tail mass ", "LU fill "):
            assert field in message
        # 169 unknowns are below the multifrontal LU's crossover
        assert re.search(r", LU fill \d+ \(SuperLU, 1 threads\), build \d+\.\d{3} s, "
                         r"block \d+\.\d{3} s, "
                         r"LU \d+\.\d{3} s, unfold \d+\.\d{3} s, tail \d+\.\d{3} s, "
                         r"validate \d+\.\d{3} s, residual \d+\.\d{3} s of \d+\.\d{3} s$",
                         message)
    # at phi != 0 the sector is folded by Hermiticity alone: the real and
    # imaginary parts of 144 off-diagonal pairs and 25 real diagonal entries
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sqcavity.sweep"):
        run_moments_sweep(replace(cfg, r_values=(0.3,), phi=0.7))
    message = [r.getMessage() for r in caplog.records if r.name == "sqcavity.sweep"][-1]
    assert message.startswith("solved r = 0.3: cutoff 25, guard 5, 313 LU unknowns, ")


def atom_sweep(tmp_path, name):
    return SweepConfig(r_values=(0.1, 0.4, 0.2, 0.6), fock_cutoff=30,
                       output_path=str(tmp_path / name)).validate()


def test_one_and_two_workers_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    one = run_moments_sweep(atom_sweep(tmp_path, "one.csv"))
    monkeypatch.setenv("SIM_THREADS", "2")
    two = run_moments_sweep(atom_sweep(tmp_path, "two.csv"))
    for row_one, row_two in zip(one, two, strict=True):
        for column in sweep_module.MOMENTS_COLUMNS:
            assert abs(row_one[column] - row_two[column]) <= 1e-15


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_plans_the_generator_once_per_worker(tmp_path, monkeypatch, workers):
    # one (params, space) is planned once, also where both workers ask for
    # it before it is cached: the second waits for the first's plan; every
    # point still gets a generator of its own
    monkeypatch.setenv("SIM_THREADS", workers)
    liouvillian._plan.cache_clear()
    plans, generators = [], []
    real_plan, real_build = liouvillian._make_plan, sweep_module.build_liouvillian
    monkeypatch.setattr(liouvillian, "_make_plan",
                        lambda *args: plans.append(1) or real_plan(*args))
    monkeypatch.setattr(sweep_module, "build_liouvillian",
                        lambda *args: generators.append(real_build(*args)) or generators[-1])
    cfg = SweepConfig(r_values=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3), fock_cutoff=20,
                      output_path=str(tmp_path / "m.csv")).validate()
    run_moments_sweep(cfg)
    assert len(plans) == 1
    assert liouvillian._plan.cache_info().misses == 1
    assert len(generators) == 6
    # solved at phi = 0 from the plan, no point formed its matrix
    assert not any("matrix" in vars(L) for L in generators)
    assert len({id(L.matrix.data) for L in generators}) == 6


@pytest.mark.parametrize("atom", [[], ["--no-atom"]])
def test_repeated_runs_in_one_process_write_identical_files(tmp_path, monkeypatch, atom):
    # the first run plans the generator, the second reuses the plan
    monkeypatch.chdir(tmp_path)
    liouvillian._plan.cache_clear()
    argv = [*atom, "--r", "0.1,0.5", "--cutoff", "40", "--out", "m.csv"]
    assert main(argv) == 0
    first = (tmp_path / "m.csv").read_bytes()
    assert liouvillian._plan.cache_info().currsize == 1
    assert main(argv) == 0
    assert (tmp_path / "m.csv").read_bytes() == first


BLAS = _blas._budget()
needs_blas = pytest.mark.skipif(
    BLAS is None, reason="numpy's and scipy's OpenBLAS not found (e.g. MKL or another "
                         "wheel layout), so the sweep leaves BLAS threads alone")


def blas_threads():
    return tuple(pool.get() for pool in BLAS.pools)


@pytest.fixture
def blas_spy(monkeypatch):
    """BLAS thread counts (numpy, scipy) seen by every LU solve; the counts
    at the start of the test are restored after it."""
    before = blas_threads()
    seen = []
    real = solvers.spsolve

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "spsolve", spy)
    yield seen
    for pool, threads in zip(BLAS.pools, before):
        pool.set(threads)


def raise_blas_threads():
    """Set both pools to at least 2 threads, so that pinning them shows,
    and return the counts."""
    for pool in BLAS.pools:
        pool.set(max(2, pool.get()))
    return blas_threads()


@needs_blas
@pytest.mark.parametrize("workers", ["1", "2"])
def test_each_worker_runs_blas_on_one_thread(tmp_path, monkeypatch, blas_spy, workers):
    monkeypatch.setenv("SIM_THREADS", workers)
    before = raise_blas_threads()
    run_moments_sweep(atom_sweep(tmp_path, "m.csv"))
    assert blas_spy == [(1, 1)] * 4
    assert blas_threads() == before


@needs_blas
def test_each_point_gets_its_share_of_the_cores_for_the_lu(tmp_path, monkeypatch):
    # cutoff 80 takes the multifrontal LU; one worker leaves each point's LU
    # cores // 1 threads (two at most, one per half of the tree), two
    # workers cores // 2; the files are the same bytes either way (the
    # header echoes output_path, so each run writes m.csv in its own
    # directory)
    solves, real = [], solvers.spsolve
    monkeypatch.setattr(solvers, "spsolve",
                        lambda *args: solves.append(real(*args)) or solves[-1])
    written = []
    for workers in (1, 2):
        monkeypatch.setenv("SIM_THREADS", str(workers))
        (tmp_path / str(workers)).mkdir()
        monkeypatch.chdir(tmp_path / str(workers))
        main(["--r", "0.3,0.5", "--cutoff", "80", "--guard", "8", "--out", "m.csv"])
        expected = min(2, max(1, _blas._cores() // workers))
        assert [(s.path, s.threads) for s in solves] == [("multifrontal", expected)] * 2
        solves.clear()
        written.append((tmp_path / str(workers) / "m.csv").read_bytes())
    assert written[0] == written[1]


def test_nested_budgets_keep_the_outer_share():
    def alone(workers):
        with _blas.thread_budget(workers) as threads:
            return threads

    with _blas.thread_budget(2) as outer:
        assert outer == (max(1, _blas._cores() // 2) if BLAS else 1)
        assert alone(1) == outer
        # another thread starts from a budget of its own
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(alone, 1).result(timeout=60) == (_blas._cores() if BLAS else 1)
    assert alone(1) == (_blas._cores() if BLAS else 1)


@needs_blas
def test_blas_threads_restored_after_a_failing_sweep(tmp_path, monkeypatch, blas_spy):
    monkeypatch.setenv("SIM_THREADS", "2")
    before = blas_threads()
    cfg = SweepConfig(r_values=(0.1, 1.2), atom_present=False, fock_cutoff=20,
                      output_path=str(tmp_path / "m.csv")).validate()
    with pytest.raises(CutoffTooSmallError):
        run_moments_sweep(cfg)
    assert blas_spy and all(numpy_threads == 1 for numpy_threads, _ in blas_spy)
    assert blas_threads() == before


@needs_blas
def test_blas_threads_never_raised(tmp_path, monkeypatch, blas_spy):
    # one worker would give scipy every core, but the count was lowered first
    monkeypatch.setenv("SIM_THREADS", "1")
    for pool in BLAS.pools:
        pool.set(1)
    run_moments_sweep(atom_sweep(tmp_path, "m.csv"))
    assert blas_spy == [(1, 1)] * 4
    assert blas_threads() == (1, 1)


@needs_blas
def test_concurrent_sweeps_restore_blas_threads(tmp_path, monkeypatch, blas_spy):
    # overlapping sweeps share one saved state; the last one out restores it
    monkeypatch.setenv("SIM_THREADS", "2")
    before = blas_threads()

    def sweep(k):
        cfg = SweepConfig(r_values=(0.05, 0.1, 0.15), atom_present=False, fock_cutoff=16,
                          output_path=str(tmp_path / f"m{k}.csv")).validate()
        for _ in range(5):
            run_moments_sweep(cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(sweep, k) for k in range(6)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert len(blas_spy) == 6 * 5 * 3
    assert all(numpy_threads == 1 for numpy_threads, _ in blas_spy)
    assert blas_threads() == before


@needs_blas
def test_steady_state_alone_pins_both_blas_pools(blas_spy):
    before = raise_blas_threads()
    steady_state(build_liouvillian(SystemParams(g0=15.0, gamma=1.0), SqueezedBath(0.5),
                                   SpaceDims(12)), epsilon=math.inf)
    assert blas_spy == [(1, 1)]
    assert blas_threads() == before


@needs_blas
def test_steady_state_alone_restores_blas_after_a_failing_solve(blas_spy):
    before = raise_blas_threads()
    # every state is steady under the zero generator, so its LU is singular;
    # guard 1, as the default guard 4 is refused at cutoff 4 before the LU
    with pytest.raises(NonUniqueSteadyStateError, match="sparse LU solve failed"):
        steady_state(zero_generator(FieldSpace(4)), guard=1)
    assert blas_spy == [(1, 1)]
    assert blas_threads() == before
