"""The monte_carlo workload: an in-process loop over a seeded corpus.

Each rep simulates one path with `simulate_paths`, grids it with
`verdict_table`, inverts the grid with `estimate_parameters` and compares it
with `predict_table` at the true (sigma, alpha_1). Library functions are
looked up on the `marcz` package at call time, so span wrappers installed by
a traced run are the ones called.

Run as a worker process (untraced measurement):

    PYTHONPATH=src python3 perfbench/montecarlo.py CORPUS.json SECONDS OUT.json
"""

import json
import math
import sys
import time

import inputs

MC_CHECK_REPS = 4       # reps recomputed after the loop to check determinism
MC_DIRECT_REPS = 2      # reps whose FFT convolution is checked against direct


def _config(marcz, item):
    spec = marcz.CoefficientSpec(sigma=item["sigma"], window=inputs.MC_WINDOW)
    return marcz.ProcessConfig(
        s=1, coeffs=(spec,), innov=marcz.spec_from_config(item["innovation"]),
        sharing="shared", length=inputs.MC_N, window=inputs.MC_WINDOW)


def run_rep(marcz, item):
    ens = marcz.simulate_paths(_config(marcz, item), item["seed"])
    table = marcz.verdict_table(ens.x[0], label="mc")
    est = marcz.estimate_parameters(table)
    pred = marcz.predict_table(item["sigma"], float(item["alpha1"]))
    agree = sum(table.outcome(s, e) == pred.outcome(s, e) for s, e in table.cells)
    return table.to_tsv(), est, agree, len(table.cells)


def run_loop(marcz, corpus, seconds, rep=run_rep):
    """Run reps until one full corpus pass is done and `seconds` have passed.

    Returns the per-rep times and the first pass's outputs. Quality figures
    come from the first pass only, so they depend on the seed alone and not
    on how many reps fit in the time.
    """
    times, first = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < len(corpus) or time.perf_counter() - start < seconds:
        item = corpus[attempted % len(corpus)]
        t0 = time.perf_counter()
        try:
            out = rep(marcz, item)
        except Exception as exc:  # a failed rep is counted, not fatal
            out = None
            sys.stderr.write(f"rep {attempted} failed: {exc!r}\n")
        t1 = time.perf_counter()
        attempted += 1
        if out is None:
            failed += 1
            continue
        times.append(t1 - t0)
        if attempted <= len(corpus):
            first.append((item, out))
    return {"times": times, "elapsed": time.perf_counter() - start,
            "attempted": attempted, "failed": failed, "first": first}


def check_reps(marcz, first):
    """Untimed output checks; returns the number of reps that failed them."""
    bad = 0
    for item, (tsv, est, _, _) in first[:MC_CHECK_REPS]:
        again_tsv, again_est, _, _ = run_rep(marcz, item)
        bad += again_tsv != tsv or again_est.to_json() != est.to_json()
    for item, _ in first[:MC_DIRECT_REPS]:
        cfg = _config(marcz, item)
        fft = marcz.simulate_paths(cfg, item["seed"]).x
        direct = marcz.simulate_paths(cfg, item["seed"], method="direct").x
        scale = max(1.0, float(abs(direct).max()))
        bad += not float(abs(fft - direct).max()) / scale < 1e-9
    return bad


def quality(first):
    """Share of grid cells matching predict_table, and mean |sigma_hat - sigma|
    over reps whose sigma estimate is a point estimate."""
    agree = sum(out[2] for _, out in first)
    cells = sum(out[3] for _, out in first)
    errs = [abs(out[1].sigma.value - item["sigma"]) for item, out in first
            if out[1].sigma.kind == "point"]
    return {"verdict_agreement": agree / cells if cells else math.nan,
            "sigma_mae": sum(errs) / len(errs) if errs else math.nan,
            "sigma_points": len(errs), "cells": cells, "reps": len(first)}


def main(argv):
    corpus_path, seconds, out_path = argv
    t0 = time.perf_counter()
    import marcz
    import_s = time.perf_counter() - t0
    with open(corpus_path) as fh:
        corpus = json.load(fh)
    result = run_loop(marcz, corpus, float(seconds))
    first = result.pop("first")
    result["quality"] = quality(first)
    result["failed"] += check_reps(marcz, first)
    result["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
