"""Benchmark inputs, generated from the workload seed with numpy alone.

Nothing here imports marcz, so a change to the library cannot change the
inputs that a workload feeds it. The same seed gives byte-identical files.
"""

import json
import os

import numpy as np

PAPER_WINDOW = 2601           # the paper's analysis window
PAPER_PRICES = 2801           # >= window + 100 trailing points + 1, for select_window
LONG_N = 2 ** 16
SIM_S, SIM_N, SIM_WINDOW = 2, 2 ** 15, 2 ** 14
MC_N, MC_WINDOW = 2601, 2 ** 14
MC_SIGMAS = (0.6, 0.7, 0.8, 0.9)
# (innovation config as marcz reads it, tail index alpha_1 of the innovations)
MC_INNOVATIONS = (
    ({"family": "gaussian", "scale": 1.0}, "inf"),
    ({"family": "student_t", "alpha": 3.0, "scale": 1.0}, "3"),
    ({"family": "symmetric_pareto", "alpha": 1.5, "scale": 1.0}, "1.5"),
    ({"family": "symmetric_pareto", "alpha": 2.5, "scale": 1.0}, "2.5"),
)
MC_REPS_PER_CELL = 8          # one corpus pass = 4 sigmas x 4 families x 8 = 128 reps


def lrd_series(rng, n, sigma, alpha, window=2 ** 12):
    """Heavy-tailed long-memory returns: symmetric Pareto(alpha) innovations
    convolved with the two-sided kernel |l|^-sigma (c_0 = 1), scaled so the
    median absolute return is 1%."""
    count = n + 2 * window
    xi = rng.random(count) ** (-1.0 / alpha)
    xi *= np.where(rng.random(count) < 0.5, 1.0, -1.0)
    lag = np.abs(np.arange(-window, window + 1, dtype=np.float64))
    lag[window] = 1.0
    kern = lag ** -sigma
    size = 1 << int(count + kern.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(xi, size) * np.fft.rfft(kern, size), size)
    x = full[kern.size - 1:count]
    return 0.01 * x / np.median(np.abs(x))


def _params(rng):
    return round(float(rng.uniform(0.6, 0.95)), 4), round(float(rng.uniform(1.8, 4.0)), 4)


def write_returns(path, values):
    with open(path, "w") as fh:
        fh.write("value\n")
        fh.write("\n".join(f"{v:.17g}" for v in values.tolist()))
        fh.write("\n")


def paper_inputs(seed, workdir):
    """A Yahoo-style price CSV and a one-column returns file, both analysed
    on 2601 points. Returns what the output checks need."""
    rng = np.random.default_rng([seed, 1])
    sigma, alpha = _params(rng)
    prices = 100.0 * np.exp(np.cumsum(lrd_series(rng, PAPER_PRICES, sigma, alpha)))
    price_text = [f"{p:.10g}" for p in prices.tolist()]
    dates = np.datetime_as_string(np.busday_offset(
        np.datetime64("2009-01-02"), np.arange(PAPER_PRICES), roll="forward"))
    volume = rng.integers(10 ** 6, 10 ** 8, PAPER_PRICES)
    price_csv = os.path.join(workdir, "prices.csv")
    with open(price_csv, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Adj Close,Volume\n")
        prev = price_text[0]
        for d, p, v in zip(dates.tolist(), price_text, volume.tolist()):
            lo, hi = sorted((prev, p), key=float)
            fh.write(f"{d},{prev},{hi},{lo},{p},{p},{v}\n")
            prev = p
    # log returns of the prices as written, r_1 = 0, then the fixed window
    lp = np.log(np.array([float(p) for p in price_text]))
    rets = np.concatenate(([0.0], np.diff(lp)))
    window = rets[PAPER_PRICES - PAPER_WINDOW - 100:PAPER_PRICES - 100]
    returns = lrd_series(rng, PAPER_WINDOW, sigma, alpha)
    returns_csv = os.path.join(workdir, "returns.csv")
    write_returns(returns_csv, returns)
    return {"sigma": sigma, "alpha1": alpha, "price_csv": price_csv,
            "price_window": window, "returns_csv": returns_csv, "returns": returns,
            "sizes": {"prices": PAPER_PRICES, "window": PAPER_WINDOW,
                      "returns": PAPER_WINDOW}}


def long_inputs(seed, workdir):
    """A 2^16-point heavy-tailed LRD returns file and a simulate config."""
    rng = np.random.default_rng([seed, 2])
    sigma, alpha = _params(rng)
    returns = lrd_series(rng, LONG_N, sigma, alpha)
    returns_csv = os.path.join(workdir, "long_returns.csv")
    write_returns(returns_csv, returns)
    sim_sigma, _ = _params(rng)
    innov, _ = MC_INNOVATIONS[int(rng.integers(len(MC_INNOVATIONS)))]
    config = {"s": SIM_S, "sigma": sim_sigma, "n": SIM_N, "window": SIM_WINDOW,
              "innovation": innov}
    config_path = os.path.join(workdir, "simulate.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return {"sigma": sigma, "alpha1": alpha, "returns_csv": returns_csv,
            "returns": returns, "sim_config": config, "sim_config_path": config_path,
            "sim_seed": int(rng.integers(2 ** 31)),
            "sizes": {"returns": LONG_N, "simulate_s": SIM_S, "simulate_n": SIM_N,
                      "simulate_window": SIM_WINDOW}}


def mc_corpus(seed):
    """The Monte Carlo corpus: every (sigma, innovation) pair, interleaved so
    that any prefix of a pass covers the grid evenly, each rep with its own
    simulation seed."""
    rng = np.random.default_rng([seed, 3])
    sim_seeds = rng.integers(2 ** 31, size=MC_REPS_PER_CELL * len(MC_SIGMAS)
                             * len(MC_INNOVATIONS)).tolist()
    cells = [(sg, innov, a1) for sg in MC_SIGMAS for innov, a1 in MC_INNOVATIONS]
    return [{"sigma": sg, "innovation": innov, "alpha1": a1, "seed": sim_seeds[i]}
            for i, (sg, innov, a1) in enumerate(cells * MC_REPS_PER_CELL)]
