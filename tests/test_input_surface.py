"""The CLI's input surface: generated returns files, price CSVs and simulate
configs, each run through `main` in-process.

Every case ends in exit 0, 2 or 3 with no Python warning. A refusal prints
one `error:` line and leaves nothing beside the input. Exit 0 happens only
for an input the case's own model reads as valid, and the run directory
then holds what the library computes from the values the model parsed.
"""

import contextlib
import functools
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marcz import (CoefficientSpec, InnovationSpec, ProcessConfig, sample, simulate_paths,
                   verdict_table)
from marcz.cli import main

# (flags, the grid they ask for); "1,x" and the removed price flags are usage errors
_GRIDS = [([], {}), (["--s-list", "1"], {"s_list": (1,)}),
          (["--exponents", "0.5,1"], {"exponent_list": (0.5, 1.0)}),
          (["--s-list", "2,2"], {"s_list": (2, 2)}), (["--s-list", "40"], {"s_list": (40,)}),
          (["--exponents", "1.5"], {"exponent_list": (1.5,)}),
          (["--proportional"], {"proportional": True}), (["--s-list", "1,x"], None),
          (["--column", "Close"], None), (["--full-series"], None)]

# cells that replace a value of the input: numbers a float reads, and text
_RETURN_CELLS = ["nan", "inf", "-infinity", "1e308", "5e-324", "1e-400", " 0.25 ", "abc",
                 "0x1p-3", "#N/A", "1,2", "\ufeff0.1", "1_0", ""]
_PRICE_CELLS = ["", "null", "nan", "inf", "-1", "0", "abc", "1e400", " 90.5"]


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _finite(cell):
    value = _float(cell)
    return value is not None and math.isfinite(value)


def _vary(draw, names):
    """Draw which of `names`, at most two, this case varies. The result maps
    (name, default, options) to `default`, or to a draw from `options` for a
    varied name, so most cases keep most of the valid input."""
    varied = draw(st.sets(st.sampled_from(names), max_size=2))
    return lambda name, default, options: (draw(st.sampled_from(options))
                                           if name in varied else default)


@functools.lru_cache(maxsize=None)
def _returns(n, seed, scale):
    x = sample(InnovationSpec("student_t", 3.0), max(n, 1), seed)[:n] * scale
    return tuple(f"{v:.17g}" for v in x.tolist())


@functools.lru_cache(maxsize=None)
def _prices(n, seed):
    rng = np.random.default_rng(seed)
    return tuple(f"{p:.10g}" for p in 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(3, n))))


def _returns_case(draw):
    vary = _vary(draw, ["n", "scale", "cell", "header", "end", "grid"])
    cells = list(_returns(vary("n", 2601, [2650, 2600, 50, 1, 0]), draw(st.integers(0, 3)),
                          vary("scale", 1.0, [0.0, 2.0 ** -1000, 2.0 ** 1000])))
    n = len(cells)
    cell = vary("cell", None, _RETURN_CELLS)
    if n and cell is not None:
        cells[draw(st.integers(0, n - 1))] = cell
    lines = vary("header", ["value"], [["\ufeffvalue"], ["0.5"], ["nan"], []]) + cells
    end = vary("end", "\n", ["\r\n"])
    text = "".join(line + end for line in lines)
    flags, grid = vary("grid", _GRIDS[0], _GRIDS[1:])
    # the model: the first line is a header that is not a number, and the
    # lines below it, up to blank ones that end the file, are numbers a float
    # reads as finite (a blank line among them is not)
    data = lines[1:]
    while data and not data[-1].strip():
        data.pop()
    values = None
    if lines and _float(lines[0]) is None and data and all(map(_finite, data)):
        values = np.array([float(c) for c in data])
    return "returns.csv", text.encode(), ["--returns-csv"], flags, grid, values


def _price_case(draw):
    vary = _vary(draw, ["n", "cell", "column", "grid", "label"])
    cells = list(_prices(vary("n", 2701, [2760, 2700, 3, 0]), draw(st.integers(0, 3))))
    n = len(cells)
    cell = vary("cell", None, _PRICE_CELLS)
    if n and cell is not None:
        cells[draw(st.integers(0, n - 1))] = cell
    column = vary("column", "Adj Close", ["Adj_Close", "Close"])
    text = f"Date,Open,{column},Volume\n" + "".join(
        f"2010-01-04,{c},{c},1000\n" for c in cells)
    flags, grid = vary("grid", _GRIDS[0], _GRIDS[1:3] + _GRIDS[-3:])
    label = vary("label", [], [["--label", "ACME"]])
    # the model: rows whose price a float reads as finite are kept, and
    # the paper's window needs 2601 returns ending 100 before the last
    kept = np.array([float(c) for c in cells if _finite(c)])
    values = None
    if column == "Adj Close" and kept.size >= 2701 and np.all(kept > 0):
        returns = np.concatenate(([0.0], np.diff(np.log(kept))))
        values = returns[kept.size - 2701:kept.size - 100]
    return "prices.csv", text.encode(), [*label, "--input"], flags, grid, values


def _config_case(draw):
    s = draw(st.sampled_from([1, 2]))
    sigma = draw(st.one_of(st.sampled_from([0.8, 0.6]),
                           st.lists(st.sampled_from([0.8, 0.6, True, "0.7"]), max_size=3)))
    family = draw(st.sampled_from(["gaussian", "student_t"]))
    innovation = {"family": family}
    if family == "student_t" or draw(st.booleans()):
        innovation["alpha"] = 4.0
    cfg = {"s": s, "sigma": sigma, "n": 64, "window": 32, "innovation": innovation,
           "sharing": draw(st.sampled_from(["shared", "independent"]))}
    if draw(st.booleans()):
        cfg["sigmas"] = [0.8] * s  # the removed second key
    # the model: one number, or a list of s numbers, and no alpha for gaussian
    sigmas = sigma if type(sigma) is list else [sigma] * s
    valid = ("sigmas" not in cfg and len(sigmas) == s
             and all(type(v) is float for v in sigmas)
             and (family != "gaussian" or "alpha" not in innovation))
    config = None
    if valid:
        config = ProcessConfig(
            s=s, coeffs=tuple(CoefficientSpec(sigma=v, window=32) for v in sigmas),
            innov=InnovationSpec(family, innovation.get("alpha", math.nan)),
            sharing=cfg["sharing"], length=64, window=32)
    return "config.json", json.dumps(cfg).encode(), ["--config"], ["--seed", "5"], None, config


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert [str(w.message) for w in caught] == []
    return rc, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.data())
def test_input_surface(draws):
    # each case draws only small parameters, so a failing example prints short
    case = draws.draw(st.sampled_from([_returns_case, _price_case, _config_case]))
    name, data, source, flags, grid, expected = case(draws.draw)
    command = "simulate" if name == "config.json" else "analyze"
    with tempfile.TemporaryDirectory() as tmp:
        path, run = os.path.join(tmp, name), os.path.join(tmp, "run")
        with open(path, "wb") as fh:
            fh.write(data)
        rc, out, err = _run([command, *source, path, *flags, "--out", run])
        assert rc in (0, 2, 3)
        if rc:
            assert out == ""
            assert len([line for line in err.splitlines() if "error:" in line]) == 1
            if rc == 3:
                assert err.startswith("error: ") and err.count("\n") == 1
            assert os.listdir(tmp) == [name]
        if command == "simulate":
            # the model decides every config
            assert rc == (0 if expected is not None else 3), err
            if expected is not None:
                ens = simulate_paths(expected, 5)
                with open(os.path.join(run, "ensemble.bin"), "rb") as fh:
                    assert fh.read() == np.vstack([ens.x, ens.d]).astype("<f8").tobytes()
            return
        if grid is None:
            assert rc == 2
        if rc == 0:
            assert expected is not None
            label = source[1] if source[0] == "--label" else name
            want = verdict_table(expected, label=label, **grid).to_tsv()
            assert out == want
            with open(os.path.join(run, "verdicts.tsv")) as fh:
                assert fh.read() == want
