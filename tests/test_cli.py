import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import marcz
from marcz import (CoefficientSpec, InnovationSpec, ProcessConfig, load_prices,
                   log_returns, rate_bound, predict_table, sample, select_window,
                   simulate_paths, verdict_table)
from marcz.cli import main
from marcz.statistic import MarcTrace


def _write_returns(path, n=2601, seed=0):
    x = sample(InnovationSpec("gaussian"), n, seed)
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in x:
            fh.write(f"{v:.17g}\n")


def _write_prices(path, n=2801, seed=0):
    """A Yahoo-style price CSV whose Close and Adj Close columns are equal."""
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    volume = rng.integers(10 ** 6, 10 ** 8, n)
    with open(path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Adj Close,Volume\n")
        for i, (p, v) in enumerate(zip(prices, volume)):
            fh.write(f"2010-01-{i % 28 + 1:02d},{p:.6f},{p:.6f},{p:.6f},{p:.6f},{p:.6f},{v}\n")


def _run_python(*args, **kwargs):
    # the child inherits this environment and imports the marcz under test
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(marcz.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


class TestSimulateCmd:
    def _config(self, tmp_path):
        cfg = {"s": 1, "sigma": 0.8, "n": 256, "window": 512,
               "innovation": {"family": "gaussian", "scale": 1.0}}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_outputs_present(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", self._config(tmp_path),
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "ensemble.bin", "ensemble.json", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [3]

    def test_deterministic(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--seed", "3", "--out", str(a)])
        main(["simulate", "--config", cfg, "--seed", "3", "--out", str(b)])
        assert (a / "ensemble.bin").read_bytes() == (b / "ensemble.bin").read_bytes()

    def test_moment_warning_line(self, tmp_path):
        # the long-series benchmark's heavy-tailed product config, shortened
        cfg = {"s": 2, "sigma": 0.8, "n": 256, "window": 512,
               "innovation": {"family": "symmetric_pareto", "alpha": 1.5, "scale": 1.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        proc = _run_python("-m", "marcz.cli", "simulate", "--config", str(path),
                           "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            "warning: innovation tail index 1.5 <= s v 2 = 2; moment condition for "
            "the product rate violated (stress-test regime)\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "ensemble.bin", "ensemble.json", "manifest.json"]

    def test_sigma_per_factor(self, tmp_path):
        # a list gives each factor its own sigma
        cfg = {"s": 2, "sigma": [0.8, 0.6], "sharing": "independent", "n": 256,
               "window": 512, "innovation": {"family": "gaussian"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--seed", "3", "--out", str(out)]) == 0
        coeffs = tuple(CoefficientSpec(sigma=sg, window=512) for sg in (0.8, 0.6))
        ens = simulate_paths(ProcessConfig(s=2, coeffs=coeffs, innov=InnovationSpec("gaussian"),
                                           sharing="independent", length=256, window=512), 3)
        assert (out / "ensemble.bin").read_bytes() == np.vstack([ens.x, ens.d]).astype("<f8").tobytes()
        assert json.loads((out / "ensemble.json").read_text())["sigmas"] == [0.8, 0.6]

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_aliasing_seed_exit_code(self, tmp_path, capsys, seed):
        # masked to 64 bits, these would draw the paths of seeds 2^64 - 1 and 0
        config = self._config(tmp_path)
        rc = main(["simulate", "--config", config, "--seed", seed,
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_largest_seed(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", self._config(tmp_path),
                     "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
        assert json.loads((out / "ensemble.json").read_text())["seed"] == 2 ** 64 - 1

    def test_unallocatable_length_exit_code(self, tmp_path):
        # 2^50 doubles (8 PiB) exceed the 2^47-byte address space Linux maps
        # for a process by default, whatever the overcommit setting
        cfg = {"sigma": 0.8, "n": 2 ** 50, "window": 512,
               "innovation": {"family": "gaussian"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        proc = _run_python("-m", "marcz.cli", "simulate", "--config", str(path),
                           "--out", str(out))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text,names", [
        ("[1, 2]", None),
        ('{"sigma": 0.8, "n": 256, "window": 512, "innovation": "gaussian"}', None),
        ('{"sigma": "abc", "n": 256, "window": 512, "innovation": {"family": "gaussian"}}',
         None),
        ('{"sigma": 0.8, "n": "abc", "window": 512, "innovation": {"family": "gaussian"}}',
         "key 'n'"),
        ('{"s": "abc", "sigma": 0.8, "n": 256, "innovation": {"family": "gaussian"}}',
         "key 's'"),
        ('{"sigma": 0.8, "n": 256, "window": "abc", "innovation": {"family": "gaussian"}}',
         "key 'window'"),
        ('{"n": 100, "innovation": {"family": "gaussian"}}', "missing key 'sigma'"),
        ('{"sigma": 0.8, "innovation": {"family": "gaussian"}}', "missing key 'n'"),
        ('{"sigma": 0.8, "n": 100, "innovation": {"scale": 1.0}}', "missing key 'family'"),
        ('{"s": 1,', None),
        ('{"s": 2.7, "sigma": 0.8, "n": 256, "window": 512, "innovation": {"family": "gaussian"}}',
         "key 's'"),
        ('{"s": true, "sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "key 's'"),
        ('{"sigma": 0.8, "n": 5000.9, "window": 512, "innovation": {"family": "gaussian"}}',
         "key 'n'"),
        ('{"sigma": 0.8, "n": "5000", "window": 512, "innovation": {"family": "gaussian"}}',
         "key 'n'"),
        ('{"sigma": 0.8, "n": 256, "window": 64.5, "innovation": {"family": "gaussian"}}',
         "key 'window'"),
        ('{"sigma": true, "n": 256, "window": 512, "innovation": {"family": "gaussian"}}',
         "key 'sigma'"),
        ('{"sigma": 0.8, "scale": true, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "unknown key 'scale'"),
        ('{"sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "student_t", "alpha": true}}', "key 'alpha'"),
        ('{"sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian", "scale": "2"}}', "key 'scale'"),
        ('{"sigma": [], "n": 256, "window": 512, "innovation": {"family": "gaussian"}}',
         "key 'sigma'"),
        ('{"s": 2, "sigma": [0.8, "0.6"], "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "key 'sigma'"),
        ('{"s": 2, "sigma": [0.8, true], "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "key 'sigma'"),
        ('{"sigma": 0.8, "center_value": "1", "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "key 'center_value'"),
        ('{"sigma": 0.8, "scale": NaN, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "unknown key 'scale'"),
        ('{"sigma": 0.8, "scale": 2.0, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "unknown key 'scale'"),
        ('{"sigma": 1' + "0" * 400 + ', "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "key 'sigma'"),
        ('{"s": 1' + "0" * 400 + ', "sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', None),
        ('{"s": 2, "sigma": 0.8, "n": 256, "window": 512, "shareing": "independent", '
         '"innovation": {"family": "gaussian"}}', "unknown key 'shareing'"),
        ('{"sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian", "scal": 2.0}}', "unknown key 'scal'"),
        ('{"sigma": 0.8, "sigmas": [0.8], "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian"}}', "unknown key 'sigmas'"),
        ('{"sigma": 0.8, "n": 256, "window": 512, '
         '"innovation": {"family": "gaussian", "alpha": 3.0}}', "key 'alpha'"),
    ], ids=["top_level_array", "innovation_string", "sigma_text", "n_text", "s_text",
            "window_text", "sigma_missing", "n_missing", "family_missing",
            "json_syntax", "s_float", "s_bool", "n_float", "n_string", "window_float",
            "sigma_bool", "scale_bool", "alpha_bool", "innovation_scale_string",
            "sigmas_empty", "sigmas_string", "sigmas_bool_entry", "center_value_string",
            "scale_nan", "scale_removed", "sigma_huge_int", "s_huge_int", "sharing_typo",
            "innovation_scale_typo", "sigma_and_sigmas", "gaussian_alpha"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, text, names):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        if names:
            assert names in captured.err
        assert not (out / "ensemble.bin").exists()


class TestAnalyzeCmd:
    def test_verdict_files(self, tmp_path, capsys):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--returns-csv", str(rets), "--out", str(out)])
        assert rc == 0
        assert (out / "verdicts.tsv").exists()
        assert (out / "verdicts.json").exists()
        assert (out / "trace_s1_e0.5.csv").exists()
        printed = capsys.readouterr().out
        assert printed.startswith("label\ts\t0.5")
        # 3 s-rows in the table
        assert len(printed.strip().splitlines()) == 4

    def test_short_series_exit_code(self, tmp_path):
        rets = tmp_path / "short.csv"
        _write_returns(rets, n=50)
        rc = main(["analyze", "--returns-csv", str(rets),
                   "--out", str(tmp_path / "x")])
        assert rc == 3

    @pytest.mark.parametrize("n", [10, 2600])
    def test_proportional_floor_exit_code(self, tmp_path, capsys, n):
        # scaled windows never shrink below the paper's 2601-point ones
        rets = tmp_path / "short.csv"
        _write_returns(rets, n=n)
        out = tmp_path / "x"
        rc = main(["analyze", "--returns-csv", str(rets), "--proportional",
                   "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: proportional windows need at least 2601 "
                                f"values, got {n}\n")
        assert not (out / "verdicts.tsv").exists()

    def test_proportional_at_paper_length(self, tmp_path, capsys):
        # at the floor the scaled windows are the paper's
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        stdout = []
        for flags in ([], ["--proportional"]):
            assert main(["analyze", "--returns-csv", str(rets), *flags,
                         "--out", str(tmp_path / f"x{len(stdout)}")]) == 0
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1]

    def test_price_csv_pipeline(self, tmp_path):
        # enough synthetic prices for the fixed 2601-point window
        p = tmp_path / "prices.csv"
        _write_prices(p, n=2750)
        rc = main(["analyze", "--input", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("flags", [["--column", "Close"], ["--full-series"]])
    def test_price_flags_are_usage_errors(self, tmp_path, capsys, flags):
        # --input reads the Adj Close window only: another column or span
        # is a returns file for --returns-csv
        p = tmp_path / "prices.csv"
        _write_prices(p)
        out = tmp_path / "analysis"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", str(p), *flags, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
        assert not out.exists()

    def test_label_is_the_file_name(self, tmp_path, capsys, monkeypatch):
        # both inputs label their table with the file's name, not the path typed
        monkeypatch.chdir(tmp_path)
        os.mkdir("sub")
        _write_prices("sub/prices.csv")
        _write_returns("sub/returns.csv")
        prices = select_window(log_returns(load_prices("sub/prices.csv")))
        returns = np.loadtxt("sub/returns.csv", skiprows=1, delimiter=",", ndmin=1)
        for flag, name, values in (("--input", "prices.csv", prices),
                                   ("--returns-csv", "returns.csv", returns)):
            assert main(["analyze", flag, f"sub/{name}", "--out", name[:-4]]) == 0
            want = verdict_table(values, label=name).to_tsv()
            assert capsys.readouterr().out == want
            assert (tmp_path / name[:-4] / "verdicts.tsv").read_text() == want

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_piped_prices(self, tmp_path, capsys):
        # a price CSV is read in one pass too, and a pipe needs --label as a
        # piped returns file does
        p = tmp_path / "prices.csv"
        _write_prices(p)
        r, w = os.pipe()
        os.close(w)
        try:
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--input", f"/dev/fd/{r}", "--out", str(tmp_path / "x")])
        finally:
            os.close(r)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --label: required when --input is not a regular file" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prices.csv"]
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(p.read_bytes())

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            rc = main(["analyze", "--input", f"/dev/fd/{r}", "--label", "ACME",
                       "--out", str(tmp_path / "pipe")])
        finally:
            os.close(r)
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert rc == 0
        want = verdict_table(select_window(log_returns(load_prices(p))), label="ACME")
        assert capsys.readouterr().out == want.to_tsv()
        assert (tmp_path / "pipe" / "verdicts.tsv").read_text() == want.to_tsv()

    @pytest.mark.parametrize("flag", ["--input", "--returns-csv"])
    def test_empty_path_exit_code(self, tmp_path, capsys, flag):
        # an empty path names no file for either input
        out = tmp_path / "analysis"
        assert main(["analyze", flag, "", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
        assert not out.exists()

    def test_nan_row_exit_code(self, tmp_path):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        lines = rets.read_text().splitlines()
        lines[1000] = "nan"
        rets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "analysis"
        rc = main(["analyze", "--returns-csv", str(rets), "--out", str(out)])
        assert rc == 3
        assert not (out / "verdicts.tsv").exists()

    @pytest.mark.parametrize("bad", ["non_numeric_cell", "two_columns", "header_only",
                                     "constant", "overflow", "headerless", "underflow",
                                     "mean_overflow", "comment", "blank_line"])
    def test_bad_returns_exit_code(self, tmp_path, bad):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        lines = rets.read_text().splitlines()
        if bad == "non_numeric_cell":
            lines[1000] = "abc"
        elif bad == "two_columns":
            lines[1:] = [f"{v},{v}" for v in lines[1:]]
        elif bad == "header_only":
            lines[1:] = []
        elif bad == "overflow":  # finite, but its square is not
            lines[1000] = "1e200"
        elif bad == "headerless":  # its first return would be read as the header
            lines[:1] = []
        elif bad == "underflow":  # nonzero, but every |x - mu|^2 is 0
            lines[1:] = [f"{float(v) * 1e-300:.17g}" for v in lines[1:]]
        elif bad == "mean_overflow":  # every partial sum is finite, the sum of f is not
            lines[700] = "1e308"
        elif bad == "comment":  # a spreadsheet's missing value, not a comment line
            lines[1000] = "#N/A"
        elif bad == "blank_line":  # a missing value among the 2601, not an end of file
            lines.insert(1000, "")
        else:
            lines[1:] = ["0.01"] * 2601
        rets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "analysis"
        # in a child process, so that a library warning would reach stderr
        s_list = ["--s-list", "1"] if bad == "mean_overflow" else []
        proc = _run_python("-m", "marcz.cli", "analyze", "--returns-csv", str(rets),
                           *s_list, "--out", str(out))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        if bad == "blank_line":
            assert proc.stderr == f"error: {rets}: line 1001 is blank\n"
        assert not (out / "verdicts.tsv").exists()

    def test_blank_lines_may_end_returns(self, tmp_path, capsys):
        # blank and whitespace-only lines after the last value are not values
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        values = np.loadtxt(rets, skiprows=1)
        with open(rets, "a") as fh:
            fh.write("\n \t\n\n")
        out = tmp_path / "analysis"
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 0
        want = verdict_table(values, label="returns.csv").to_tsv()
        assert capsys.readouterr().out == want
        assert (out / "verdicts.tsv").read_text() == want

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_piped_returns(self, tmp_path):
        # a pipe can be read once: the header and the values come from one reader
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        argv = ["-m", "marcz.cli", "analyze", "--label", "returns", "--out"]
        assert _run_python(*argv, str(tmp_path / "file"),
                           "--returns-csv", str(rets)).returncode == 0
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(rets.read_bytes())

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            proc = _run_python(*argv, str(tmp_path / "pipe"), "--returns-csv",
                               f"/dev/fd/{r}", pass_fds=(r,), timeout=120)
        finally:
            os.close(r)
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "pipe" / "verdicts.tsv").read_text()
                == (tmp_path / "file" / "verdicts.tsv").read_text())
        traces = sorted((tmp_path / "pipe").glob("trace_*.csv"))
        assert len(traces) == 18
        for trace in traces:
            assert len(trace.read_text().splitlines()) == 2601 + 1, trace.name

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_piped_returns_need_label(self, tmp_path, capsys):
        # a pipe's name (/dev/fd/N) would label the verdict table N; the
        # write end is closed, so a read would meet EOF rather than block
        r, w = os.pipe()
        os.close(w)
        out = tmp_path / "analysis"
        try:
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--returns-csv", f"/dev/fd/{r}", "--out", str(out)])
        finally:
            os.close(r)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("argument --label: required when --returns-csv is not a regular file"
                in captured.err)
        assert not out.exists()

    def test_refused_series_leaves_no_run_directory(self, tmp_path, capsys):
        # the grid refuses the series before the run directory is made
        rets = tmp_path / "returns.csv"
        rets.write_text("value\n" + "0.01\n" * 2601)
        out = tmp_path / "analysis"
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 3
        assert "series is constant" in capsys.readouterr().err
        assert not out.exists()

    def test_second_run_refused(self, tmp_path, capsys):
        # a run directory holds one finished run: a second run into it is
        # refused and leaves the first run's files as they were
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["analyze", "--returns-csv", str(rets), "--s-list", "2",
                   "--exponents", "0.7", "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out}: exists and is not an empty "
                                "directory\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert len(first) == 2 + 18 + 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["analysis", "returns.csv"]

    def test_empty_out_replaced(self, tmp_path, capsys):
        # an empty --out is taken over, and the run directory gets the mode
        # that os.makedirs gives
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out, made = tmp_path / "analysis", tmp_path / "made"
        out.mkdir()
        os.makedirs(made)
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert out.stat().st_mode == made.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "analysis", "made", "returns.csv"]

    @pytest.mark.parametrize("argv", [["--s-list", "1,1"], ["--exponents", "0.5,0.5"]])
    def test_repeated_grid_value_exit_code(self, tmp_path, capsys, argv):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--returns-csv", str(rets), *argv, "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not (out / "verdicts.tsv").exists()


    @pytest.mark.parametrize("label", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
    def test_unreadable_label_exit_code(self, tmp_path, capsys, label):
        # verdicts.tsv could not be read back by estimate
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--returns-csv", str(rets), "--label", label, "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: label {label!r} holds a tab or a line break\n"
        assert not (out / "verdicts.tsv").exists()


class TestTraceWriters:
    """analyze writes its trace files from up to one process per usable CPU;
    three are claimed here so that two writers are forked on any runner."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        calls, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        return calls

    def test_same_bytes_as_serial_writer(self, tmp_path, capsys, forks):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 0
        assert len(forks) == 2
        values = np.loadtxt(rets, skiprows=1, delimiter=",", ndmin=1)
        table = verdict_table(values, label="returns.csv", collect_traces=True)
        assert len(list(out.glob("trace_*.csv"))) == len(table.traces)
        serial = tmp_path / "serial.csv"
        for (s, e), tr in table.traces.items():
            tr.to_csv(serial)
            assert (out / f"trace_s{s}_e{e:g}.csv").read_bytes() == serial.read_bytes()
        assert (out / "verdicts.tsv").read_text() == table.to_tsv()
        assert (out / "verdicts.json").read_text() == table.to_json()
        assert capsys.readouterr().out == table.to_tsv()

    # with 3 writers the parent writes traces 0, 3, ... and the first child
    # 1, 4, ... of the grid in (s, e) order
    @pytest.mark.parametrize("name", ["trace_s1_e0.5.csv", "trace_s1_e0.6.csv"],
                             ids=["parent_share", "child_share"])
    def test_write_failure_exit_code(self, tmp_path, capsys, forks, monkeypatch, name):
        # the trace fails in every process that writes it, so the parent's
        # second try raises, and the half-built run directory is removed
        to_csv = MarcTrace.to_csv

        def failing(self, path):
            if os.path.basename(path) == name:
                raise IsADirectoryError(21, "Is a directory", path)
            to_csv(self, path)

        monkeypatch.setattr(MarcTrace, "to_csv", failing)
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        rc = main(["analyze", "--returns-csv", str(rets), "--out", str(out)])
        assert rc == 3
        assert len(forks) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert name in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["returns.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_transient_child_failure_recovers(self, tmp_path, capsys, forks,
                                              monkeypatch):
        # the first child fails on one of its traces, and the parent writes
        # that child's share again once it is reaped
        parent, to_csv = os.getpid(), MarcTrace.to_csv

        def flaky(self, path):
            if os.getpid() != parent and os.path.basename(path) == "trace_s1_e0.6.csv":
                raise OSError("disk full")
            to_csv(self, path)

        monkeypatch.setattr(MarcTrace, "to_csv", flaky)
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        out = tmp_path / "analysis"
        assert main(["analyze", "--returns-csv", str(rets), "--out", str(out)]) == 0
        assert len(forks) == 2
        assert capsys.readouterr().err == ""
        values = np.loadtxt(rets, skiprows=1, delimiter=",", ndmin=1)
        table = verdict_table(values, collect_traces=True)
        assert len(list(out.glob("trace_*.csv"))) == len(table.traces)
        serial = tmp_path / "serial.csv"
        for (s, e), tr in table.traces.items():
            to_csv(tr, serial)
            assert (out / f"trace_s{s}_e{e:g}.csv").read_bytes() == serial.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_warns_nothing(self, tmp_path):
        rets = tmp_path / "returns.csv"
        _write_returns(rets)
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
                "from marcz.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = _run_python("-W", "error::DeprecationWarning", "-c", code, "analyze",
                           "--returns-csv", str(rets), "--out", str(tmp_path / "a"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestEstimateCmd:
    def test_from_fixture_table(self, fixtures_dir, capsys):
        rc = main(["estimate", "--table", f"{fixtures_dir}/table1.tsv"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["Alcoa"]["sigma"]["value"] == pytest.approx(0.65)
        assert blob["Barrick Gold"]["alpha1"]["kind"] == "point"
        assert blob["McDonalds"]["sigma"]["value"] == pytest.approx(0.55)

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["estimate", "--table", str(tmp_path / "nope.tsv")])
        assert rc == 3

    def test_input_is_usage_error(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", f"{fixtures_dir}/prices.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        "",
        "label\ts\t0.5\t1\nA\tone\tD\tC\n",
        "label\ts\t0.5\t1\nA\t1\tD\tX\n",
        "label\ts\t0.5\t1\nA\t1\tD\tC\nA\t1\tD\tD\n",
        "label\tsigma\t0.5\t1\nA\t1\tD\tC\n",
        "label\ts\t0.5\thalf\nA\t1\tD\tC\n",
        "label\ts\t0.5\t1\nA\t1.5\tD\tC\n",
        "label\ts\t0.5\t1\nA\t1\tD\n",
        "label\ts\t0.5\t0.5\nA\t1\tD\tC\n",
        "label\ts\t0.5\t1\nA\t\u00b2\tD\tC\n",
    ])
    def test_malformed_table_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        assert main(["estimate", "--table", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")


class TestTablePredictCmd:
    def test_stdout(self, capsys):
        rc = main(["table-predict", "--sigma", "0.65", "--alpha1", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "D\tD\tD\tD\tC\tC" in out

    def test_infinite_alpha(self, capsys):
        rc = main(["table-predict", "--sigma", "1.0"])
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["--sigma", "nan"],
        ["--sigma", "0.7", "--alpha1", "nan"],
        ["--sigma", "0.7", "--alpha1", "-2"],
        ["--sigma", "0.7", "--s-list", "0,1"],
        ["--sigma", "0.7", "--alpha1", "2", "--s-list", "0,1"],
        ["--sigma", "0.7", "--exponents", "0.5,1.5"],
        ["--sigma", "0.7", "--s-list", "1,1"],
        ["--sigma", "0.7", "--exponents", "0.5,0.5"],
        ["--sigma", "0.7", "--alpha1", "abc"],
    ])
    def test_bad_input_exit_code(self, capsys, argv):
        assert main(["table-predict", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestVerifyCmd:
    def test_full_out_refused_before_the_suite(self, tmp_path, capsys, monkeypatch):
        def not_called():
            raise AssertionError("the suite ran before --out was refused")

        monkeypatch.setattr(marcz.verify, "kernel_suite", not_called)
        out = tmp_path / "v"
        out.mkdir()
        (out / "kept.txt").write_text("first run\n")
        assert main(["verify", "--suite", "kernel", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --out {out}: exists and is not an empty "
                                "directory\n")
        assert [p.name for p in out.iterdir()] == ["kept.txt"]

    @pytest.mark.parametrize("suite", ["tensor", "mslln"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, suite):
        # every draw goes through one seed check; the mslln reps draw from
        # seed * 100003 + rep, which the message names
        out = tmp_path / "v"
        assert main(["verify", "--suite", suite, "--seed", "-1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be in [0, 2**64), got -1")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_tensor_suite(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "tensor", "--out", str(tmp_path / "v")])
        assert rc == 0
        assert (tmp_path / "v" / "tensor_checks.tsv").exists()
        assert "pass" in capsys.readouterr().out

    def test_mslln_suite(self, tmp_path, capsys):
        # the rows' values are the suite's own checks: only their passes are read
        out = tmp_path / "v"
        assert main(["verify", "--suite", "mslln", "--out", str(out)]) == 0
        names = ["lrd sigma=0.8 median ratio p=1.2", "lrd sigma=0.8 median ratio p=1.8",
                 "ht alpha=1.5 ordering p=1.3 vs p=1.8", "ht alpha=1.5 median ratio p=1.3",
                 "ht alpha=1.5 median ratio p=1.8"]
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [row[:2] for row in rows] == [["pass", name] for name in names]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "mslln_checks.tsv"]
        lines = (out / "mslln_checks.tsv").read_text().splitlines()
        assert lines[0] == "check\tvalue\tlimit\tcomparison\tpassed"
        rows = [line.split("\t") for line in lines[1:]]
        assert [(row[0], row[-1]) for row in rows] == [(name, "pass") for name in names]

    def test_kernel_suite_full_radius(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--suite", "kernel", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("kernel_*.tsv"))
        assert names == ["kernel_checks.tsv", "kernel_gamma_0.6.tsv",
                         "kernel_gamma_0.75.tsv", "kernel_gamma_1.5.tsv",
                         "kernel_gamma_1.tsv", "kernel_mixed_gamma_0.75.tsv"]
        for name in names[1:]:
            assert len((out / name).read_text().splitlines()) == 1 + 999, name
        # the spreads of the direct dot products
        assert capsys.readouterr().out == (
            "pass\tspread gamma=0.6\t1.34657 < 10\n"
            "pass\tspread gamma=0.75\t2.43432 < 10\n"
            "pass\tspread gamma=1\t1.12481 < 10\n"
            "pass\tspread gamma=1.5\t2.31338 < 10\n"
            "pass\tspread mixed gamma=0.75\t1.47086 < 10\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--returns-csv", "{path}", "--epsilon", "0.01"],
    ["analyze", "--returns-csv", "{path}", "--rho", "0.01"],
    ["analyze", "--returns-csv", "{path}", "--start", "700"],
    ["verify", "--suite", "kernel", "--radius", "5000"],
    ["verify", "--suite", "mslln", "--reps", "2"],
    ["verify", "--suite", "mslln", "--length", "8192"],
    ["estimate", "--table", "{path}", "--out", "estimate.json"],
    ["table-predict", "--sigma", "0.7", "--out", "predicted.tsv"],
], ids=["epsilon", "rho", "start", "radius", "reps", "length", "estimate_out",
        "table_predict_out"])
def test_procedure_constants_are_not_flags(tmp_path, capsys, argv):
    # the verdict rule and the suites run the published constants only, and
    # the table commands have one output, stdout: --out is a usage error there
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([a.format(path=tmp_path / "returns.csv") for a in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{path}", "--out", "{out}"],
    ["estimate", "--table", "{path}"],
    ["analyze", "--input", "{path}", "--out", "{out}"],
    ["analyze", "--returns-csv", "{path}", "--out", "{out}"],
], ids=["simulate_config", "estimate_table", "analyze_input", "analyze_returns"])
def test_not_utf8_input_exit_code(tmp_path, capsys, argv):
    path, out = tmp_path / "input", tmp_path / "run"
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert main([a.format(path=path, out=out) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{config}", "--out", ""],
    ["simulate", "--config", "{config}", "--out", "."],
    ["verify", "--suite", "tensor", "--out", ""],
], ids=["simulate_empty", "simulate_dot", "verify_empty"])
def test_out_is_working_directory_exit_code(tmp_path, capsys, monkeypatch, argv):
    # the rename onto --out would replace the caller's working directory
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": 1, "sigma": 0.8, "n": 256, "window": 512,
                                  "innovation": {"family": "gaussian"}}))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    inode = cwd.stat().st_ino
    monkeypatch.chdir(cwd)
    assert main([a.format(config=config) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {argv[-1]!r} is the working directory\n"
    assert os.stat(".").st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "cwd"]
    assert list(cwd.iterdir()) == []


def test_cli_import_loads_numpy_only():
    code = ("import sys, marcz.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numba', 'multiprocessing', "
            "'concurrent', 'pickle')))")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_library_pipeline_skips_fork_helper():
    # the Monte Carlo path of the library (simulate, grid, invert) never loads
    # marcz.forked; the mslln ratio medians do, so the check can see it
    code = ("import sys, marcz; "
            "spec = marcz.CoefficientSpec(sigma=0.8, window=2 ** 9); "
            "cfg = marcz.ProcessConfig(s=1, coeffs=(spec,), "
            "innov=marcz.InnovationSpec('gaussian'), length=2601, window=2 ** 9); "
            "table = marcz.verdict_table(marcz.simulate_paths(cfg, 0).x[0], label='mc'); "
            "marcz.estimate_parameters(table); "
            "before = 'marcz.forked' in sys.modules; "
            "marcz.ht_ratio_medians(n=64, reps=1, compare_at=32); "
            "print(before, 'marcz.forked' in sys.modules)")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False True"


@pytest.mark.parametrize("module", ["marcz", "marcz.cli"])
def test_import_runs_no_submodule(module):
    # every submodule is in sys.modules (perfbench looks them up there), and
    # none has run: tables, rates and the numeric modules import dataclasses
    code = (f"import sys, {module}; "
            "print([m for m in ('errors', 'tables', 'rates', 'ingest', 'innovations', "
            "'kernel', 'linproc', 'statistic', 'verify') if 'marcz.' + m not in sys.modules], "
            "'dataclasses' in sys.modules)")
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False\n"


@pytest.mark.parametrize("argv", [
    [],
    ["estimate", "--table", "{fixtures}/table1.tsv"],
    ["table-predict", "--sigma", "0.65", "--alpha1", "2"],
], ids=["import", "estimate", "table_predict"])
def test_table_commands_skip_numpy(fixtures_dir, argv):
    # the numeric modules are in sys.modules (perfbench looks them up there)
    # but have not run, so nothing has imported numpy
    code = ("import sys, marcz.cli; "
            "rc = marcz.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "lazy = [m for m in ('ingest', 'innovations', 'kernel', 'linproc', "
            "'statistic', 'verify') if 'marcz.' + m not in sys.modules]; "
            "sys.stderr.write(repr((lazy, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy')))); sys.exit(rc)")
    proc = _run_python("-c", code, *(a.format(fixtures=fixtures_dir) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "([], [])"
    assert bool(proc.stdout) == bool(argv)


@pytest.mark.parametrize("code", [
    "import marcz; from marcz.statistic import verdict_table; "
    "assert marcz.verdict_table is verdict_table",
    "from marcz.kernel import _NEAR_LAGS; assert _NEAR_LAGS > 0",
    "import marcz; from marcz import *; "
    "assert all(globals()[n] is getattr(marcz, n) for n in marcz.__all__); "
    "assert simulate_paths.__module__ == 'marcz.linproc'",
    "import marcz; names = dir(marcz); "
    "assert {'verdict_table', 'simulate_paths', 'mslln_suite', 'kernel'} <= set(names); "
    "assert set(marcz.__all__) <= set(names) and names == sorted(names)",
], ids=["package_attribute", "submodule_import", "star_import", "dir_lists_lazy_names"])
def test_lazy_names_resolve(code):
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.xfail(strict=True,
                   reason="the trailing-average verdict rule at n=2601 agrees "
                          "with the rate-bound prediction in only ~65% of "
                          "non-boundary cells; the 80% target is out of reach "
                          "for the verdict rule at these thresholds")
def test_analyze_agrees_with_prediction():
    sigma = 0.8
    pred = predict_table(sigma, math.inf)
    spec = CoefficientSpec(sigma=sigma, window=2 ** 12)
    cfg = ProcessConfig(s=1, coeffs=(spec,), innov=InnovationSpec("gaussian"),
                        sharing="shared", length=2601, window=2 ** 12)
    agree = total = 0
    for seed in range(16):
        obs = verdict_table(simulate_paths(cfg, seed).x[0], label="sim")
        for s in (1, 2, 3):
            bound = rate_bound(s, sigma, math.inf)
            for e in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
                if abs(1.0 / e - bound) < 0.15:
                    continue  # boundary cells excluded
                total += 1
                agree += obs.outcome(s, e) == pred.outcome(s, e)
    assert agree / total >= 0.8
