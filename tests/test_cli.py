"""Command line interface: configs, outputs, exit codes.

Most tests drive ``shortchain.cli.main`` in process for speed; one test
runs the module through a real subprocess.
"""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import shortchain
from shortchain import cli, runner, targets
from shortchain.adaptation import (SizingPolicy, chain_count, iteration_count,
                                   mean_error_chain_count,
                                   variance_error_chain_count)
from shortchain.cli import (EXIT_ERROR, EXIT_OK, EXIT_UNRELIABLE, build_run,
                            load_config, main, write_outputs)
from shortchain.runner import RunConfig, run_diagnostic


def write_config(tmp_path, name="config.json", **updates):
    cfg = {
        "target": {"kind": "gaussian_correlated", "dimension": 2,
                   "correlation": 0.3},
        "approximation": {"kind": "mean_field_gaussian"},
        "kernel": "mala",
        "seed": 42,
        "overrides": {"chains": 100, "iterations": 12},
    }
    cfg.update(updates)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def read_csv(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


class TestSizingCommand:
    def test_barker_thirty_dimensional(self, capsys):
        assert main(["sizing", "--kernel", "barker", "--dimension", "30"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chains N            387" in out
        assert "chains (mean rule)  387" in out
        assert "chains (var rule)   260" in out
        assert "iterations T        155" in out
        assert "target acceptance   0.4" in out

    def test_random_walk_step_size(self, capsys):
        assert main(["sizing", "--kernel", "rwmh", "--dimension", "10"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "initial step size   0.576" in out
        assert "iterations T        107" in out

    def test_hamiltonian_budget(self, capsys):
        assert main(["sizing", "--kernel", "hmc", "--dimension", "16"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "iterations T        10" in out
        assert "initial step size   2.88" in out

    def test_custom_tolerances(self, capsys):
        assert main(["sizing", "--kernel", "rwmh", "--dimension", "4",
                     "--delta-mean", "1.0", "--delta-var", "2.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chains N            7" in out

    def test_defaults_are_the_sizing_policy_defaults(self, capsys):
        assert main(["sizing", "--kernel", "barker", "--dimension", "30"]) == EXIT_OK
        out = capsys.readouterr().out
        policy = SizingPolicy()
        n_mean = mean_error_chain_count(policy.delta_mean, policy.alpha)
        n_var = variance_error_chain_count(policy.delta_var, policy.alpha)
        assert f"chains (mean rule)  {n_mean}\n" in out
        assert f"chains (var rule)   {n_var}\n" in out
        assert f"chains N            {chain_count(policy)}\n" in out
        assert f"iterations T        {iteration_count('barker', 30)}\n" in out

    def test_dimension_beyond_the_float_range_is_refused(self, capsys):
        huge = "1" + "0" * 400
        assert main(["sizing", "--kernel", "rwmh", "--dimension", huge]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: dimension must be at most 1.79")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--c", "--leapfrog-steps"])
    def test_iteration_constants_are_not_flags(self, capsys, flag):
        # c = 50 and L = 10 are fixed; overrides.iterations sets T directly
        with pytest.raises(SystemExit) as exc:
            main(["sizing", "--kernel", "rwmh", "--dimension", "5", flag, "20"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 20" in capsys.readouterr().err

    def test_module_entry_point(self):
        # the subprocess imports the same package as this test, installed or not
        package_root = str(Path(shortchain.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "shortchain", "sizing", "--kernel", "rwmh",
             "--dimension", "10"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == EXIT_OK
        assert "0.576" in proc.stdout


class TestRunCommand:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "report.json").exists()
        assert (out_dir / "bounds.csv").exists()
        assert (out_dir / "reliability.csv").exists()
        assert not (out_dir / "traces.csv").exists()
        printed = capsys.readouterr().out
        assert "chains=100" in printed
        assert "reliability PASSED" in printed

    def test_report_is_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_report_round_trips_through_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        assert report["kernel"] == "mala"
        assert report["chains"] == 100
        assert report["iterations"] == 12
        assert report["seed"] == 42
        assert len(report["functionals"]) == 4
        assert len(report["acceptance_history"]) == 12
        assert "wall_time" not in json.dumps(report)

    def test_bounds_csv_matches_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        rows = read_csv(out_dir / "bounds.csv")
        by_tag = {f["tag"]: f for f in report["functionals"]}
        assert len(rows) == len(report["functionals"])
        for row in rows:
            assert float(row["bound"]) == by_tag[row["functional_tag"]]["bound"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", str(cfg), "--out", str(a)])
        main(["run", "--config", str(cfg), "--out", str(b), "--seed", "42"])
        main(["run", "--config", str(cfg), "--out", str(c), "--seed", "7"])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "report.json").read_bytes() != (c / "report.json").read_bytes()

    def test_frozen_chains_exit_two_with_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            overrides={"chains": 50, "iterations": 10, "step_size_scale": 1e-8})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_UNRELIABLE
        captured = capsys.readouterr()
        assert "remember their initialization" in captured.err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["reliability"]["passed"] is False

    def test_functional_wildcards_expand(self, tmp_path):
        cfg = write_config(tmp_path, functionals=["mean(*)", "quantile(0, 0.5)"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        tags = [f["tag"] for f in report["functionals"]]
        assert tags == ["mean(0)", "mean(1)", "quantile(0,0.5)"]

    def test_empirical_approximation_from_npy(self, tmp_path):
        stream = np.random.default_rng(0)
        samples = stream.normal(size=(500, 2))
        npy = tmp_path / "draws.npy"
        np.save(npy, samples)
        cfg = write_config(
            tmp_path,
            approximation={"kind": "empirical", "samples_path": str(npy)})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK

    def test_empirical_approximation_from_csv(self, tmp_path):
        samples = np.random.default_rng(1).normal(size=(300, 2))
        csv = tmp_path / "draws.csv"
        np.savetxt(csv, samples, delimiter=",")
        cfg = write_config(
            tmp_path, functionals=["mean(*)", "variance(*)", "quantile(1,0.5)"],
            approximation={"kind": "empirical", "samples_path": str(csv)})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        means = [f["initial_value"] for f in report["functionals"][:2]]
        assert means == samples.mean(axis=0).tolist()
        assert report["functionals"][4]["initial_side"] == "approximation"

    def test_one_row_csv_is_one_sample(self, tmp_path, capsys):
        # a row of d values is one draw of d coordinates, too few to audit from
        csv = tmp_path / "draws.csv"
        csv.write_text("0.5,1.5,-2.0\n")
        cfg = write_config(
            tmp_path, target={"kind": "funnel", "dimension": 3},
            approximation={"kind": "empirical", "samples_path": str(csv)})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        assert ("need an (N, d) sample matrix with N >= 2, got shape (1, 3)"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, content", [
        ("draws.csv", ""), ("draws.csv", "\n  \n"), ("draws.csv", "# x0,x1\n  # none\n"),
        ("draws.npy", "")], ids=["empty-csv", "blank-csv", "comments-csv", "empty-npy"])
    def test_empty_samples_file_is_named(self, tmp_path, capsys, name, content):
        # refused by its path before NumPy warns on it or fails to read it
        path = tmp_path / name
        path.write_text(content)
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": str(path)})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        assert (capsys.readouterr().err
                == f"error: approximation.samples_path holds no samples: {path}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", [5, None])
    def test_non_string_samples_path_is_named(self, tmp_path, capsys, value):
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": value})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: approximation.samples_path must be a string, got {value!r}\n"
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("dtype", [complex, bool])
    def test_non_real_npy_is_named(self, tmp_path, capsys, dtype):
        # NumPy would warn on the complex values and audit their real parts,
        # and read the bools as 0 and 1
        npy = tmp_path / "draws.npy"
        np.save(npy, np.random.default_rng(0).normal(size=(50, 2)).astype(dtype))
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": str(npy)})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        assert (capsys.readouterr().err == "error: samples must hold integers or floats, "
                f"got dtype {np.dtype(dtype)}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, content, reason", [
        ("draws.csv", b"a,b\n1,2\n3,4\n",
         "could not convert string 'a' to float64 at row 0, column 1."),
        ("draws.csv", b"1,2\n3\n", "the number of columns changed from 2 to 1 at row 2"),
        ("draws.npy", b"1,2\n3,4\n", "it holds pickled objects, which are never loaded")],
        ids=["header-csv", "ragged-csv", "not-an-array-npy"])
    def test_unreadable_samples_file_is_named(self, tmp_path, capsys, name, content, reason):
        # NumPy's own text would not name the file, and for the .npy would
        # advise loading it with allow_pickle
        path = tmp_path / name
        path.write_bytes(content)
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": str(path)})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: approximation.samples_path cannot be read: {path}: {reason}\n"
        assert "Traceback" not in err and "allow_pickle" not in err
        assert not out_dir.exists()

    def test_npz_archive_is_named(self, tmp_path, capsys):
        # np.load opens an archive whatever the file is called; its key
        # names are not samples
        npy = tmp_path / "z.npy"
        with npy.open("wb") as f:
            np.savez(f, a=np.random.default_rng(0).normal(size=(30, 2)))
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": str(npy)})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        assert (capsys.readouterr().err == "error: approximation.samples_path holds an .npz "
                f"archive, not one array: {npy}\n")
        assert not out_dir.exists()

    def test_non_finite_csv_row_is_named(self, tmp_path, capsys):
        samples = np.random.default_rng(2).normal(size=(40, 2))
        samples[3, 0] = np.nan
        csv = tmp_path / "draws.csv"
        np.savetxt(csv, samples, delimiter=",")
        cfg = write_config(
            tmp_path, approximation={"kind": "empirical", "samples_path": str(csv)})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: samples must be finite, got [nan, ")
        assert err.endswith("in row 3 (counting from 0)\n")
        assert not out_dir.exists()

    def test_vector_parameters_broadcast(self, tmp_path):
        cfg = write_config(
            tmp_path,
            target={"kind": "gaussian_correlated", "dimension": 3,
                    "correlation": 0.2, "variances": 2.5},
            approximation={"kind": "kl_optimal_mean_field"})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK


class TestCsvViews:
    def test_a_tag_holding_a_comma_is_one_quoted_field(self, tmp_path):
        cfg = write_config(tmp_path, functionals=["quantile(1,0.5)",
                                                  "scalar(target_log_density)"])
        out_dir = tmp_path / "out"
        assert main(["trace", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        tags = [f["tag"] for f in report["functionals"]]
        assert "quantile(1,0.5)" in tags
        for name in ("bounds.csv", "traces.csv"):
            with (out_dir / name).open(newline="") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows)
            column = header.index("functional_tag")
            assert sorted({row[column] for row in rows}) == sorted(tags)
        assert '\n"quantile(1,0.5)",' in (out_dir / "bounds.csv").read_text()

    def test_csv_views_are_what_the_csv_module_writes(self, tmp_path):
        # a scalar name holding a comma, quotes and a newline: each CSV is
        # byte for byte the csv module's minimal quoting of its rows
        target = shortchain.correlated_gaussian_target(2, correlation=0.3)
        approx = shortchain.mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0])
        name = 'x0, "quoted"\nline'
        cfg = RunConfig(kernel="rwmh", seed=5, n_chains=50, n_iterations=3,
                        trace_every=1, functionals=["quantile(0,0.5)", f"scalar({name})"],
                        scalar_functions={name: lambda x: x[:, 0]})
        paths = write_outputs(run_diagnostic(cfg, target, approx), tmp_path, traces=True)
        for key in ("bounds", "reliability", "traces"):
            with paths[key].open(newline="") as f:
                rows = list(csv.reader(f))
            assert {len(row) for row in rows} == {len(rows[0])}
            rewritten = tmp_path / f"{key}-rewritten.csv"
            with rewritten.open("w", newline="") as f:
                csv.writer(f, lineterminator="\n").writerows(rows)
            assert paths[key].read_bytes() == rewritten.read_bytes()
        assert f"scalar_mean({name})" in {row["functional_tag"]
                                          for row in read_csv(paths["bounds"])}

    def test_non_finite_cells_are_printed_as_in_the_report(self, tmp_path):
        # a scalar that is +inf on some chains has NaN interval endpoints
        def spiky(x):
            return np.where(x[:, 0] > 1.0, np.inf, x[:, 1])

        target = shortchain.correlated_gaussian_target(2, correlation=0.3)
        approx = shortchain.mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0])
        cfg = RunConfig(kernel="mala", seed=3, n_chains=100, n_iterations=4,
                        trace_every=2, functionals=["mean(0)", "scalar(spiky)"],
                        scalar_functions={"spiky": spiky})
        with np.errstate(invalid="ignore"):  # inf - inf in the scalar's spread
            report = run_diagnostic(cfg, target, approx)
        paths = write_outputs(report, tmp_path, traces=True)
        report = json.loads(paths["report"].read_text())

        def printed(value):  # a cell as report.json prints it, unquoted
            return value if isinstance(value, str) else json.dumps(value)

        bounds = read_csv(paths["bounds"])
        assert bounds == [{"functional_tag": f["tag"], "bound": printed(f["bound"]),
                           "lower": printed(f["lower"]), "upper": printed(f["upper"]),
                           "detected": printed(f["detected"])}
                          for f in report["functionals"]]
        assert any("NaN" in row.values() for row in bounds)
        assert {row["detected"] for row in bounds} <= {"true", "false"}
        assert read_csv(paths["reliability"]) == [
            {"coordinate": str(i), "rho2": printed(v)}
            for i, v in enumerate(report["reliability"]["rho2"])]
        assert read_csv(paths["traces"]) == [
            {"t": str(row["t"]), "functional_tag": tag, "bound": printed(bound),
             "rho2_max": printed(row["rho2_max"])}
            for row in report["traces"] for tag, bound in row["bounds"].items()]


class TestBuildRun:
    def test_absent_sizing_keys_take_the_policy_defaults(self, tmp_path):
        run_config, _, _ = build_run(load_config(write_config(tmp_path)))
        assert run_config.sizing == SizingPolicy()

    def test_absent_run_keys_take_the_run_config_defaults(self, tmp_path):
        run_config, _, _ = build_run(load_config(write_config(tmp_path)))
        defaults = RunConfig(kernel="rwmh", seed=0)
        for key in ("step_size_scale", "trace_every"):
            assert getattr(run_config, key) == getattr(defaults, key)

    def test_present_sizing_keys_override_the_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, alpha=0.1, delta_mean=0.2,
                                       delta_var=0.3))
        run_config, _, _ = build_run(cfg)
        assert run_config.sizing == SizingPolicy(delta_mean=0.2, delta_var=0.3, alpha=0.1)


class TestTraceCommand:
    def test_trace_outputs(self, tmp_path):
        cfg = write_config(tmp_path, trace_every=5,
                           functionals=["mean(0)", "variance(0)"])
        out_dir = tmp_path / "out"
        assert main(["trace", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        rows = read_csv(out_dir / "traces.csv")
        # checkpoints 0, 5, 10 plus the final iteration 12, two functionals each
        assert len(rows) == 8
        t0 = [r for r in rows if r["t"] == "0"]
        assert all(float(r["rho2_max"]) == 1.0 for r in t0)

    def test_trace_defaults_to_every_iteration(self, tmp_path):
        cfg = write_config(tmp_path, functionals=["mean(0)"])
        out_dir = tmp_path / "out"
        assert main(["trace", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        rows = read_csv(out_dir / "traces.csv")
        assert [r["t"] for r in rows] == [str(t) for t in range(13)]

    def test_final_trace_row_matches_report(self, tmp_path):
        cfg = write_config(tmp_path, trace_every=3, functionals=["variance(1)"])
        out_dir = tmp_path / "out"
        main(["trace", "--config", str(cfg), "--out", str(out_dir)])
        report = json.loads((out_dir / "report.json").read_text())
        rows = read_csv(out_dir / "traces.csv")
        final = [r for r in rows if r["t"] == "12"]
        assert len(final) == 1
        assert float(final[0]["bound"]) == report["functionals"][0]["bound"]


class TestErrorHandling:
    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "target": {,}\n}\n')
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("functionals, message", [
        (["quantile(0,2)"], "functional quantile(0,2) needs a quantile level p in (0, 1)"),
        (["quantile(0,nan)"], "functional quantile(0,nan) needs a quantile level p in (0, 1)"),
        (["quantile(0,0)"], "functional quantile(0,0) needs a quantile level p in (0, 1)"),
        (["quantile(0,1)"], "functional quantile(0,1) needs a quantile level p in (0, 1)"),
        (["mean(*)", "mean(0)"], "functional mean(0) is listed more than once"),
        (["mean(x)"], "functional 'mean(x)' needs an integer coordinate"),
        ("mean(0)", "functionals must be a list of strings"),
        (["mean(0)", 1], "functionals must be a list of strings, got ['mean(0)', 1]"),
        ({"mean(0)": 1}, "functionals must be a list of strings, got {'mean(0)': 1}")])
    def test_bad_functional_is_named(self, tmp_path, capsys, functionals, message):
        cfg = write_config(tmp_path, functionals=functionals)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_under_a_file_is_refused_before_the_run(self, tmp_path, capsys,
                                                        monkeypatch, out):
        def no_run(*args, **kwargs):
            raise AssertionError("ran the audit before checking --out")

        monkeypatch.setattr(cli, "run_diagnostic", no_run)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: --out must name a directory, but {taken} is a file\n"
        assert taken.read_text() == "keep\n"

    def test_unknown_top_level_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, chains=50)  # belongs under overrides
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "chains" in err
        assert "allowed keys" in err

    def test_reliability_cutoff_is_not_a_setting(self, tmp_path, capsys):
        # every run checks reliability at reliability_check's one cutoff, 0.1
        cfg = write_config(tmp_path, reliability_cutoff=0.1)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "unknown key(s) in config: ['reliability_cutoff']" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("iteration_coefficient", 50.0),
                                            ("leapfrog_steps", 10)])
    def test_iteration_constants_are_not_settings(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"unknown key(s) in config: ['{key}']" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kernel, overrides, key", [
        ('"kernel": "rwmh", "kernel": "hmc"', '{"chains": 50}', "kernel"),
        ('"kernel": "rwmh"', '{"chains": 50, "chains": 60}', "chains"),
        # an inner object is parsed, and refused, before the object around it
        ('"kernel": "rwmh", "kernel": "hmc"', '{"chains": 50, "chains": 60}', "chains"),
    ], ids=["top-level", "nested", "both"])
    def test_repeated_key_is_refused(self, tmp_path, capsys, kernel, overrides, key):
        # json keeps the last copy of a repeated key; a config refuses it
        path = tmp_path / "config.json"
        path.write_text('{"target": {"kind": "gaussian_correlated", "dimension": 2}, '
                        '"approximation": {"kind": "mean_field_gaussian"}, '
                        f'{kernel}, "seed": 1, "overrides": {overrides}}}')
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"key '{key}' appears more than once" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_target_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, target={"kind": "cauchy", "dimension": 2})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "target.kind" in capsys.readouterr().err

    def test_wrong_vector_length(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            target={"kind": "gaussian_correlated", "dimension": 3,
                    "variances": [1.0, 2.0]})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "length 3" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "target": {"kind": "funnel", "dimension": 3},
            "approximation": {"kind": "mean_field_gaussian"},
            "kernel": "rwmh"}))
        assert main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"run"', "null"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "top level must be an object" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"kernel": "\xff"}')
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {cfg} is not UTF-8 text: invalid start byte at byte 12\n"
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_ensemble_whose_mean_overflows_is_named(self, tmp_path, capsys):
        # the kl-optimal approximation of a target centred at 1e308 samples
        # finite points whose mean is not
        cfg = write_config(
            tmp_path, target={"kind": "gaussian_correlated", "dimension": 3, "mean": 1e308},
            approximation={"kind": "kl_optimal_mean_field"}, kernel="rwmh",
            overrides={"chains": 30, "iterations": 3})
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the initial ensemble's mean overflows at "
                                       "coordinate 0: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out_dir.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_ERROR

    def test_missing_samples_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            approximation={"kind": "empirical",
                           "samples_path": str(tmp_path / "nope.npy")})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "samples_path" in capsys.readouterr().err

    def test_non_integer_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=1.5)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "seed" in capsys.readouterr().err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=True)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert "alpha" in capsys.readouterr().err


class TestNonFiniteSizing:
    @pytest.mark.parametrize("key, value", [("delta_mean", math.nan),
                                            ("delta_var", math.nan),
                                            ("alpha", -math.inf)])
    def test_run_config_is_refused(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})  # json writes NaN/Infinity
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, field", [("--delta-mean", "delta_mean")])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_sizing_flag_is_refused(self, capsys, flag, field, value):
        assert main(["sizing", "--kernel", "rwmh", "--dimension", "5",
                     flag, value]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be finite")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestAlphaTooSmall:
    # 1 - alpha/2 rounds to 1 at alpha = 1e-17; the run with the chains
    # override took all its steps before chain_count named neither alpha nor a key
    def test_run_config_is_refused_naming_alpha(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the run built a stream")

        monkeypatch.setattr(runner, "chain_streams", unreachable)
        cfg = write_config(tmp_path, alpha=1e-17)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha must exceed 2**-53 ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_sizing_flag_is_refused_naming_alpha(self, capsys):
        assert main(["sizing", "--kernel", "rwmh", "--dimension", "2",
                     "--alpha", "1e-17"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha must exceed 2**-53 ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestNonFiniteModelParameters:
    # json writes NaN/Infinity; the factories refuse them by name instead of
    # letting the run blame the approximation for where the chains start
    @pytest.mark.parametrize("section, updates, name", [
        ("target", {"kind": "logistic_synthetic", "dimension": 2, "observations": 50,
                    "prior_sd": math.nan}, "prior_sd"),
        ("target", {"kind": "gaussian_correlated", "dimension": 2,
                    "variances": math.inf}, "variances"),
        ("target", {"kind": "gaussian_correlated", "dimension": 2,
                    "mean": [0.0, -math.inf]}, "mean"),
        ("approximation", {"kind": "mean_field_gaussian", "means": math.inf}, "means"),
        # an sd whose square overflows would give an infinite covariance
        ("approximation", {"kind": "mean_field_gaussian", "sds": [1e200, 1.0]}, "sds"),
    ], ids=["prior_sd", "variances", "mean", "means", "sds"])
    def test_run_is_refused_naming_the_parameter(self, tmp_path, capsys, section,
                                                 updates, name):
        cfg = write_config(tmp_path, **{section: updates})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ")
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("target, approximation, message", [
        ({"mean": math.nan}, {}, "mean must be finite, got nan at coordinate 0"),
        ({"variances": [1.0] * 29 + [math.inf]}, {},
         "variances must be positive and finite, got inf at coordinate 29"),
        ({}, {"means": [0.0] * 7 + [-math.inf] * 23},
         "means must be finite, got -inf at coordinate 7"),
        ({}, {"sds": [1.0] * 29 + [0.0]},
         "sds must be positive and finite, got 0.0 at coordinate 29"),
    ], ids=["mean", "variances", "means", "sds"])
    def test_a_long_vector_is_named_on_one_line(self, tmp_path, capsys, target,
                                                approximation, message):
        # NumPy wraps a 30-entry vector over two lines; the refusal names the
        # first bad entry instead, so the CLI prints one error line
        cfg = write_config(
            tmp_path, target={"kind": "gaussian_correlated", "dimension": 30, **target},
            approximation={"kind": "mean_field_gaussian", **approximation})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


# numeric config values that plain float strategies rarely produce, beside
# ordinary ones, so that most drawn configs still build
EDGE_VALUES = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, 1e308, -1e308,
               True, False, "0.1", [], [1.0]]
ORDINARY_VALUES = [0.05, 0.2, 0.5, 1, 2, 3, 10, 50.0]
NUMBERS = st.sampled_from(EDGE_VALUES + ORDINARY_VALUES)
NUMERIC_KEYS = ["seed", "alpha", "delta_mean", "delta_var", "trace_every"]
OVERRIDES = st.one_of(
    st.dictionaries(st.sampled_from(["chains", "iterations", "step_size_scale"]),
                    NUMBERS, max_size=3),
    st.sampled_from(EDGE_VALUES))


class TestOverrideLimits:
    # the sized N and T never exceed 1,000,000; overrides are held to it too
    @pytest.mark.parametrize("overrides, field", [
        ({"chains": 1000000000, "iterations": 1000000000000}, "n_chains"),
        ({"chains": 100, "iterations": 1000000000000}, "n_iterations"),
    ], ids=["chains", "iterations"])
    def test_run_is_refused_naming_the_limit(self, tmp_path, capsys, monkeypatch,
                                             overrides, field):
        def unreachable(*args):
            raise AssertionError("the run allocated per-chain state")

        monkeypatch.setattr(runner, "chain_streams", unreachable)
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be at most 1000000, got ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestDimensionLimit:
    # every audit builds (d, d) matrices; a d whose matrix cannot fit in memory
    # ended in a MemoryError traceback at 10**6 and in NumPy's "Maximum
    # allowed dimension exceeded" at 2**70
    @pytest.mark.parametrize("kind, name", [("funnel", "target.dimension"),
                                            ("gaussian_correlated", "dimension")])
    @pytest.mark.parametrize("d", [10**6, 2**70])
    def test_run_is_refused_naming_the_dimension_and_bytes(self, tmp_path, capsys, kind,
                                                          name, d):
        cfg = write_config(tmp_path, target={"kind": kind, "dimension": d})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name} {d} needs {8 * d * d:,} bytes ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_logistic_features_beyond_memory_are_refused(self, tmp_path, capsys, monkeypatch):
        # the (observations, d) features ended in an _ArrayMemoryError traceback
        def unreachable(*args):
            raise AssertionError("drew the dataset")

        monkeypatch.setattr(targets, "RandomStream", unreachable)
        cfg = write_config(tmp_path, target={"kind": "logistic_synthetic", "dimension": 10000,
                                             "observations": 1000000})
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: n_observations 1000000 with dimension 10000 "
                                       "needs 80,000,000,000 bytes ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()


class TestConfigFuzz:
    @given(kernel=st.sampled_from(list(shortchain.KERNEL_KINDS) + ["slice"]),
           dimension=st.sampled_from([1, 2, 5, 0, -1, 2.0, math.nan, True, "3"]),
           numbers=st.dictionaries(st.sampled_from(NUMERIC_KEYS), NUMBERS, max_size=4),
           overrides=st.none() | OVERRIDES)
    @example(kernel="rwmh", dimension=2, numbers={"delta_mean": math.nan}, overrides=None)
    def test_config_builds_and_sizes_or_is_refused(self, kernel, dimension, numbers,
                                                   overrides):
        cfg = {"target": {"kind": "gaussian_correlated", "dimension": dimension},
               "approximation": {"kind": "mean_field_gaussian"},
               "kernel": kernel, "seed": 0, **numbers}
        if overrides is not None:
            cfg["overrides"] = overrides
        try:
            run_config, target, approximation = build_run(cfg)
            n = chain_count(run_config.sizing)
            t = iteration_count(run_config.kernel, target.dimension)
        except ValueError:  # ConfigError is a ValueError
            return
        assert 2 <= n < 1_000_000
        assert t >= 1

        # the run checks its own settings: it refuses them by name or
        # reaches its first chain's stream
        class FirstStream(Exception):
            pass

        def first_stream(*args):
            raise FirstStream

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "chain_streams", first_stream)
            with pytest.raises((ValueError, FirstStream)):
                run_diagnostic(run_config, target, approximation)


class TestPresets:
    @pytest.mark.parametrize("preset", [
        "gaussian_correlated_d30.json",
        "gaussian_correlated_d10.json",
        "funnel_d20.json",
    ])
    def test_presets_validate(self, preset, tmp_path):
        path = Path(__file__).resolve().parent.parent / "presets" / preset
        cfg = load_config(path)
        run_config, target, approximation = build_run(cfg)
        assert target.dimension == approximation.dimension
        assert run_config.kernel in ("rwmh", "mala", "barker", "hmc")
