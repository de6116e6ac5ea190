"""CLI sessions of the paper_cli, long_series and verify workloads, and the
output checks run on them outside the timed region.

A session is a fixed list of `marcz` CLI calls. Untraced runs spawn each
call as `python -m marcz.cli` with `src` on PYTHONPATH (the package need
not be installed); traced runs call `marcz.cli.main(argv)` in-process.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

import inputs


@dataclass
class Step:
    metric: str        # end-to-end timing this call reports under, e.g. analyze_s
    argv: list         # arguments after `marcz`
    check: object      # check(stdout) -> (ok, {artifact: [sha256, bytes]})
    out_dir: str = None


@dataclass
class Call:
    wall: float
    rc: int
    stdout: str
    max_rss: int = 0   # bytes; 0 when the call ran in-process


def cli_env(root):
    """The inherited environment with `src` prepended to PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, env, cwd, log_prefix, deadline):
    """Run `cmd` to completion; wall time is spawn to exit, max RSS comes from
    the child's own rusage. The child is killed if it is still running at
    `deadline` (a perf_counter value)."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".out") as fh:
        stdout = fh.read()
    return Call(wall, proc.returncode, stdout, usage.ru_maxrss * 1024)


def run_in_process(cli, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return Call(time.perf_counter() - t0, rc, buf.getvalue())


def fingerprint(path, newline_count=False):
    h, size, lines = hashlib.sha256(), 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
            size += len(chunk)
            if newline_count:
                lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines


def text_fingerprint(text):
    data = text.encode()
    return [hashlib.sha256(data).hexdigest(), len(data)]


def manifest_fingerprint(path):
    """manifest.json without its timestamp, in canonical form."""
    with open(path) as fh:
        manifest = json.load(fh)
    manifest.pop("timestamp", None)
    return text_fingerprint(json.dumps(manifest, sort_keys=True))


def out_dir_fingerprints(out_dir, name):
    prints, rows = {}, {}
    for fname in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, fname)
        key = f"{name}/{fname}"
        if fname == "manifest.json":
            prints[key] = manifest_fingerprint(path)
            continue
        digest, size, lines = fingerprint(path, newline_count=fname.startswith("trace_"))
        prints[key] = [digest, size]
        rows[fname] = lines
    return prints, rows


def analyze_check(marcz, values, label, out_dir, name, proportional=False):
    """verdicts.tsv equals the library grid on the same values and flags, and
    there is one trace file with a header and n rows per grid cell."""
    def check(stdout):
        expected = marcz.verdict_table(values, label=label,
                                       proportional=proportional).to_tsv()
        prints, rows = out_dir_fingerprints(out_dir, name)
        with open(os.path.join(out_dir, "verdicts.tsv")) as fh:
            ok = fh.read() == expected and stdout == expected
        traces = [f for f in rows if f.startswith("trace_")]
        ok &= len(traces) == len(marcz.DEFAULT_S_LIST) * len(marcz.DEFAULT_EXPONENTS)
        ok &= all(rows[f] == values.size + 1 for f in traces)
        return ok, prints
    return check


def estimate_check(marcz, table_path, name):
    def check(stdout):
        expected = {t.label: json.loads(marcz.estimate_parameters(t).to_json())
                    for t in marcz.tables_from_tsv(table_path)}
        return json.loads(stdout) == expected, {name: text_fingerprint(stdout)}
    return check


def predict_check(marcz, sigma, alpha1, name):
    def check(stdout):
        expected = marcz.predict_table(float(sigma), float(alpha1),
                                       label=f"predicted_s{float(sigma):g}_a{alpha1}")
        return stdout == expected.to_tsv(), {name: text_fingerprint(stdout)}
    return check


def simulate_check(marcz, config, seed, out_dir, name):
    """ensemble.bin equals the bytes of simulate_paths for the same config."""
    def check(stdout):
        window = config["window"]
        spec = marcz.CoefficientSpec(sigma=config["sigma"], window=window)
        cfg = marcz.ProcessConfig(
            s=config["s"], coeffs=(spec,) * config["s"],
            innov=marcz.spec_from_config(config["innovation"]), sharing="shared",
            length=config["n"], window=window)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # moment warnings were printed by the call
            ens = marcz.simulate_paths(cfg, seed)
        block = np.vstack([ens.x, ens.d[None, :]]).astype("<f8")
        with open(os.path.join(out_dir, "ensemble.bin"), "rb") as fh:
            ok = fh.read() == block.tobytes()
        prints, _ = out_dir_fingerprints(out_dir, name)
        return ok, prints
    return check


def verify_check(name):
    def check(stdout):
        lines = stdout.splitlines()
        return bool(lines) and all(ln.startswith("pass\t") for ln in lines), \
            {name: text_fingerprint(stdout)}
    return check


def paper_cli(marcz, seed, work):
    inp = inputs.paper_inputs(seed, work)
    out_p, out_r = os.path.join(work, "out_prices"), os.path.join(work, "out_returns")
    sigma, alpha1 = f"{inp['sigma']}", f"{inp['alpha1']}"
    steps = [
        Step("analyze_s", ["analyze", "--input", inp["price_csv"], "--label", "paper",
                           "--out", out_p],
             analyze_check(marcz, inp["price_window"], "paper", out_p, "analyze_prices"),
             out_p),
        Step("analyze_s", ["analyze", "--returns-csv", inp["returns_csv"],
                           "--label", "paper_returns", "--out", out_r],
             analyze_check(marcz, inp["returns"], "paper_returns", out_r,
                           "analyze_returns"), out_r),
        Step("estimate_s", ["estimate", "--table", os.path.join(out_p, "verdicts.tsv")],
             estimate_check(marcz, os.path.join(out_p, "verdicts.tsv"), "estimate.json")),
        Step("table_predict_s", ["table-predict", "--sigma", sigma, "--alpha1", alpha1],
             predict_check(marcz, sigma, alpha1, "table_predict.tsv")),
    ]
    return inp["sizes"], steps


def long_series(marcz, seed, work):
    inp = inputs.long_inputs(seed, work)
    out_a, out_s = os.path.join(work, "out_long"), os.path.join(work, "out_sim")
    steps = [
        Step("analyze_s", ["analyze", "--returns-csv", inp["returns_csv"], "--proportional",
                           "--label", "long", "--out", out_a],
             analyze_check(marcz, inp["returns"], "long", out_a, "analyze_long",
                           proportional=True), out_a),
        Step("estimate_s", ["estimate", "--table", os.path.join(out_a, "verdicts.tsv")],
             estimate_check(marcz, os.path.join(out_a, "verdicts.tsv"), "estimate.json")),
        Step("simulate_s", ["simulate", "--config", inp["sim_config_path"],
                            "--seed", str(inp["sim_seed"]), "--out", out_s],
             simulate_check(marcz, inp["sim_config"], inp["sim_seed"], out_s, "simulate"),
             out_s),
    ]
    return inp["sizes"], steps


def verify(marcz, seed, work):
    steps = [
        Step("verify_kernel_s", ["verify", "--suite", "kernel"],
             verify_check("verify_kernel.txt")),
        Step("verify_mslln_s", ["verify", "--suite", "mslln"],
             verify_check("verify_mslln.txt")),
    ]
    return {"kernel_radius": 10 ** 6, "kernel_lags": 999, "mslln_reps": 32,
            "mslln_n": 2 ** 16}, steps


WORKLOADS = {"paper_cli": paper_cli, "long_series": long_series, "verify": verify}


def clear_outputs(steps):
    for step in steps:
        if step.out_dir:
            shutil.rmtree(step.out_dir, ignore_errors=True)


def run_session(steps, call):
    """Run every step with `call(argv)`; a step whose predecessor failed still
    runs, and fails its own check if its input is missing."""
    return [call(step.argv) for step in steps]


def check_session(steps, calls):
    """Untimed: check each call's exit code and outputs.

    Returns per-step pass flags and the session's artifact fingerprints.
    """
    passed, prints = [], {}
    for step, call in zip(steps, calls):
        ok = call.rc == 0
        if ok:
            try:
                ok, fp = step.check(call.stdout)
                prints.update(fp)
            except Exception:   # a check that cannot complete is a failed check
                sys.stderr.write(f"check of {step.argv[0]} raised:\n{traceback.format_exc()}")
                ok = False
        passed.append(bool(ok))
    return passed, prints


class Tally:
    """Operations attempted and failed over a run's sessions. Every session of
    a run has the same inputs, so it must produce the same artifact bytes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.prints = None

    def add(self, steps, calls):
        passed, prints = check_session(steps, calls)
        if self.prints is None:
            self.prints = prints
        elif prints != self.prints:
            passed = [False] * len(passed)
        self.attempted += len(calls)
        self.failed += passed.count(False)
