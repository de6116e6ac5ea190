"""End-to-end and per-layer benchmark of marcz.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): paper_cli,
long_series, monte_carlo, verify. Every workload is a closed loop with one
client: one CLI subprocess or one in-process rep at a time.

With --trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 the workload runs in-process under span wrappers and the
per-layer metrics are reported. The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; the lines before it give every timing
by name with its median, tail percentile and sample count, and a full
record (environment, input sizes, artifact fingerprints) is written to
.perfbench_work/results/. The package does not need to be installed: `src`
is put on PYTHONPATH.
"""

import argparse
import importlib.metadata
import importlib.util
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs
import montecarlo
import sessions
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_work"
TIME_LIMIT = 170          # seconds; children still running after this are killed
SETUP_REPEATS = 3         # fresh-interpreter imports per run for setup_s


def describe(samples):
    """Median, the highest whole percentile with at least ten samples beyond
    it (nearest rank; none below 11 samples), and the sample count."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if n else math.nan,
           "tail_pct": None, "tail": None}
    if n >= 11:
        q = math.floor(100 * (1 - 10 / n))
        out["tail_pct"], out["tail"] = q, sorted(samples)[math.ceil(q * n / 100) - 1]
    return out


def environment(sizes):
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache):
        levels = []
        for index in os.listdir(cache):
            try:
                with open(os.path.join(cache, index, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, index, "size")) as fh:
                    levels.append((level, fh.read().strip()))
            except (OSError, ValueError):
                continue
        if levels:
            llc = max(levels)[1]
    llc_bytes = None
    if llc:
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        llc_bytes = int(llc.rstrip("KMG")) * units.get(llc[-1], 1)
    largest = inputs.LONG_N * 8     # one float64 array of the long series
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "llc": llc,
        "llc_bytes": llc_bytes, "largest_array_bytes": largest,
        # arrays that fit in the last-level cache say nothing about DRAM bandwidth
        "bandwidth_claims_allowed": llc_bytes is not None and 4 * llc_bytes <= largest,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(), "input_sizes": sizes,
    }


def setup_times(target, env):
    """Import time of `target` in fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {target}; "
            "print(repr(time.perf_counter() - t))")
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import {target} failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def another_session(start, seconds, times):
    """A run holds whole sessions and ends as near `seconds` as they allow:
    another starts only if, as long as the last one, it ends less than half
    a session past the deadline."""
    return not times or time.perf_counter() - start + times[-1] / 2 < seconds


def import_marcz():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import marcz
    import marcz.cli
    return marcz


@dataclass
class Outcome:
    metrics: dict            # metric name -> value
    attempted: int
    failed: int
    sizes: dict              # input sizes of the workload
    detail: dict             # named timings and figures for the printed summary
    fingerprints: dict = field(default_factory=dict)
    tracer: tracing.Tracer = None


# ---------------------------------------------------------------- CLI workloads

def cli_untraced(name, seed, seconds, work, deadline):
    env = sessions.cli_env(ROOT)
    setup = setup_times("marcz.cli", env)
    marcz = import_marcz()
    sizes, steps = sessions.WORKLOADS[name](marcz, seed, work)
    cmd = [sys.executable, "-m", "marcz.cli"]
    log = os.path.join(work, "call")

    def call(argv):
        return sessions.spawn(cmd + argv, env, ROOT, log, deadline)

    timings = {"session_s": []}
    tally, peak, start = sessions.Tally(), 0, time.perf_counter()
    while another_session(start, seconds, timings["session_s"]):
        sessions.clear_outputs(steps)
        calls = sessions.run_session(steps, call)
        tally.add(steps, calls)
        timings["session_s"].append(sum(c.wall for c in calls))
        for step, c in zip(steps, calls):
            timings.setdefault(step.metric, []).append(c.wall)
        peak = max([peak] + [c.max_rss for c in calls])
    sessions.clear_outputs(steps)
    metrics = {"setup_s": statistics.median(setup),
               "session_s": statistics.median(timings["session_s"]),
               "peak_rss_mb": peak / 1e6}
    detail = {"timings": {k: describe(v) for k, v in timings.items()},
              "setup_s": describe(setup), "peak_rss_mb": peak / 1e6}
    return Outcome(metrics, tally.attempted, tally.failed, sizes, detail, tally.prints)


def cli_traced(name, seed, seconds, work):
    layer = tracing.import_metrics("marcz.cli", sessions.cli_env(ROOT), ROOT)
    marcz = import_marcz()
    sizes, steps = sessions.WORKLOADS[name](marcz, seed, work)
    tracer = tracing.Tracer()

    def call(argv):
        return sessions.run_in_process(marcz.cli, argv)

    times, tally, start = [], sessions.Tally(), time.perf_counter()
    while another_session(start, seconds, times):
        sessions.clear_outputs(steps)
        tracer.install()
        try:
            calls = tracer.session(len(times), sessions.run_session, steps, call)
        finally:
            tracer.uninstall()
        times.append(sum(c.wall for c in calls))
        tally.add(steps, calls)
    sessions.clear_outputs(steps)
    layer.update(tracer.layer_metrics(len(times)))
    detail = {"traced_session_s": describe(times)}
    return Outcome(layer, tally.attempted, tally.failed, sizes, detail, tally.prints, tracer)


# ---------------------------------------------------------------- monte_carlo

def mc_untraced(seed, seconds, work, deadline):
    env = sessions.cli_env(ROOT)
    setup = setup_times("marcz", env)
    corpus_path, out_path = os.path.join(work, "corpus.json"), os.path.join(work, "mc.json")
    with open(corpus_path, "w") as fh:
        json.dump(inputs.mc_corpus(seed), fh)
    worker = [sys.executable, os.path.join("perfbench", "montecarlo.py"),
              corpus_path, str(seconds), out_path]
    c = sessions.spawn(worker, env, ROOT, os.path.join(work, "worker"), deadline)
    if c.rc != 0:
        raise RuntimeError(f"monte_carlo worker exited with {c.rc}")
    with open(out_path) as fh:
        res = json.load(fh)
    q = res["quality"]
    metrics = {"setup_s": statistics.median(setup),
               "session_s": statistics.median(res["times"]),
               "peak_rss_mb": c.max_rss / 1e6}
    detail = {"timings": {"session_s": describe(res["times"])},
              "setup_s": describe(setup), "peak_rss_mb": c.max_rss / 1e6,
              "reps_per_s": len(res["times"]) / res["elapsed"],
              "verdict_agreement": q["verdict_agreement"], "sigma_mae": q["sigma_mae"],
              "quality": q, "worker_import_s": res["import_s"]}
    sizes = {"n": inputs.MC_N, "window": inputs.MC_WINDOW, "corpus_reps": q["reps"]}
    return Outcome(metrics, res["attempted"], res["failed"], sizes, detail)


def mc_traced(seed, seconds, work):
    layer = tracing.import_metrics("marcz", sessions.cli_env(ROOT), ROOT)
    marcz = import_marcz()
    corpus = inputs.mc_corpus(seed)
    tracer = tracing.Tracer()
    op_ids = itertools.count()

    def traced_rep(marcz, item):
        return tracer.session(next(op_ids), montecarlo.run_rep, marcz, item)

    tracer.install()
    try:
        res = montecarlo.run_loop(marcz, corpus, seconds, rep=traced_rep)
    finally:
        tracer.uninstall()
    # the untraced recomputation must match what the traced reps produced
    failed = res["failed"] + montecarlo.check_reps(marcz, res["first"])
    layer.update(tracer.layer_metrics(len(res["times"])))
    detail = {"traced_session_s": describe(res["times"]),
              "quality": montecarlo.quality(res["first"])}
    sizes = {"n": inputs.MC_N, "window": inputs.MC_WINDOW, "corpus_reps": len(corpus)}
    return Outcome(layer, res["attempted"], failed, sizes, detail, tracer=tracer)


# ---------------------------------------------------------------- reporting

def print_summary(result):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    detail = result["detail"]
    for metric, d in detail.get("timings", {}).items():
        tail = (f"p{d['tail_pct']} {d['tail']:.6g} s" if d["tail_pct"] is not None
                else "no percentile with 10 samples beyond")
        print(f"  {metric:<18} median {d['median']:.6g} s  {tail}  n={d['n']}")
    if "setup_s" in detail:
        print(f"  {'setup_s':<18} median {detail['setup_s']['median']:.6g} s  "
              f"n={detail['setup_s']['n']}")
    for key, unit in (("peak_rss_mb", "MB"), ("reps_per_s", "1/s"),
                      ("verdict_agreement", "ratio"), ("sigma_mae", "1")):
        if key in detail:
            print(f"  {key:<18} {detail[key]:.6g} {unit}")
    att, fail = result["attempted"], result["failed"]
    print(f"  {'fail_rate':<18} {fail / att:.6g} ratio  ({fail} of {att} operations)")
    if result["trace"]:
        for name, value in result["metrics"].items():
            print(f"  {name:<34} {value['value']:.6g} {value['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cli", "long_series", "monte_carlo", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "marcz", "cli.py")):
        sys.stderr.write("perfbench: src/marcz not found; run from a full checkout\n")
        return 2
    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(WORK, args.workload)
    results = os.path.join(WORK, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)

    if args.workload == "monte_carlo":
        out = (mc_traced(args.seed, args.seconds, work) if args.trace
               else mc_untraced(args.seed, args.seconds, work, start + TIME_LIMIT))
    elif args.trace:
        out = cli_traced(args.workload, args.seed, args.seconds, work)
    else:
        out = cli_untraced(args.workload, args.seed, args.seconds, work, start + TIME_LIMIT)
    metrics = {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}

    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if out.tracer is not None:
        out.tracer.write(stem + ".spans.jsonl")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(out.sizes),
              "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
              "detail": out.detail, "fingerprints": out.fingerprints,
              "wall_s": time.perf_counter() - start}
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print_summary(result)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
