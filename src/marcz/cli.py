"""Command-line front end: simulate, analyze, estimate, table-predict, verify."""

import argparse
import json
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone

# ingest, innovations, kernel, linproc, statistic and verify load numpy on
# first attribute access (see marcz/__init__.py): reach them as module
# attributes at run time, so estimate and table-predict never load it
from . import __version__, ingest, innovations, kernel, linproc, statistic, verify
from .errors import (ConfigurationError, DomainError, EmptyDataError, MarczError,
                     SchemaError)
from .rates import estimate_parameters, predict_table
from .tables import DEFAULT_EXPONENTS, DEFAULT_S_LIST, tables_from_tsv

EXIT_OK = 0
EXIT_DATA = 3
EXIT_VERIFY = 4


@contextmanager
def _run_directory(args):
    """Build the block's files and manifest.json in a fresh sibling of
    `args.out`, then rename it onto `args.out`; a failure removes the sibling."""
    out = os.path.abspath(args.out)
    if os.path.lexists(out) and (not os.path.isdir(out) or os.listdir(out)):
        raise ConfigurationError(f"--out {args.out}: exists and is not an empty directory")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{os.path.basename(out)}.", dir=os.path.dirname(out))
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o777 & ~umask)  # the mode os.makedirs gives
        yield tmp
        manifest = {"tool": "marcz", "version": __version__, "command": args.command,
                    "args": {k: v for k, v in vars(args).items() if k != "func"},
                    "seeds": [args.seed] if "seed" in args else [],
                    "timestamp": datetime.now(timezone.utc).isoformat()}
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
        os.rename(tmp, out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(","))


def _parse_int_list(text):
    return tuple(int(v) for v in text.split(","))


def _load_process_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    number = innovations.config_number
    try:
        for key in raw:
            if key not in ("s", "sigma", "sigmas", "center_value", "window", "innovation",
                           "sharing", "n"):
                raise ConfigurationError(f"unknown key {key!r}")
        s = number(raw.get("s", 1), "s", int)
        sigmas = raw["sigmas"] if "sigmas" in raw else [number(raw["sigma"], "sigma")] * s
        if "sigmas" in raw and (type(sigmas) is not list or len(sigmas) != s):
            raise ConfigurationError(f"key 'sigmas' must list s = {s} numbers, got {sigmas!r}")
        center_value = number(raw.get("center_value", 1.0), "center_value")
        window = number(raw.get("window", linproc.DEFAULT_WINDOW), "window", int)
        coeffs = tuple(kernel.CoefficientSpec(sigma=number(sg, "sigmas"),
                                              center_value=center_value, window=window)
                       for sg in sigmas)
        return linproc.ProcessConfig(
            s=s, coeffs=coeffs, innov=innovations.spec_from_config(raw["innovation"]),
            sharing=raw.get("sharing", "shared"), length=number(raw["n"], "n", int),
            window=window)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def cmd_simulate(args):
    config = _load_process_config(args.config)
    ens = linproc.simulate_paths(config, args.seed)
    for w in config.moment_warnings():
        sys.stderr.write(f"warning: {w}\n")
    with _run_directory(args) as out:
        linproc.ensemble_to_binary(ens, os.path.join(out, "ensemble.bin"),
                                   os.path.join(out, "ensemble.json"))
    return EXIT_OK


def _read_returns(path):
    """The values of a one-column returns CSV below its header line."""
    import numpy as np

    try:
        with open(path) as fh, warnings.catch_warnings():
            # numpy warns, rather than fails, on a file without data rows
            warnings.simplefilter("error", UserWarning)
            header = fh.readline()
            values = np.loadtxt(fh, delimiter=",", ndmin=1)
    except UserWarning:
        raise EmptyDataError(f"{path}: no data rows") from None
    except ValueError as exc:  # a cell that is not a number, or text that is not UTF-8
        raise SchemaError(f"{path}: {exc}") from None
    try:
        float(header)
    except ValueError:
        return values
    raise SchemaError(f"{path}: first line {header.strip()!r} is a number, not a header")


def _analysis_input(args):
    if args.returns_csv:
        return _read_returns(args.returns_csv), args.label or os.path.basename(args.returns_csv)
    series = ingest.load_prices(args.input, column_name=args.column, label=args.label)
    returns = ingest.log_returns(series)
    if not args.full_series:
        returns = ingest.select_window(returns)
    return returns, series.label


def cmd_analyze(args):
    values, label = _analysis_input(args)
    table = statistic.verdict_table(values, args.s_list, args.exponents, label=label,
                                    proportional=args.proportional, collect_traces=True)
    tsv = table.to_tsv()
    with _run_directory(args) as out:
        from .forked import forked_map  # only a command that forks loads the helper
        forked_map(lambda tr: tr.to_csv(os.path.join(out, f"trace_s{tr.s}_e{tr.exponent:g}.csv")),
                   list(table.traces.values()))
        for name, text in (("verdicts.json", table.to_json()), ("verdicts.tsv", tsv)):
            with open(os.path.join(out, name), "w") as fh:
                fh.write(text)
    sys.stdout.write(tsv)
    return EXIT_OK


def cmd_estimate(args):
    sys.stdout.write(json.dumps({t.label: asdict(estimate_parameters(t))
                                 for t in tables_from_tsv(args.table)}, indent=2) + "\n")
    return EXIT_OK


def cmd_table_predict(args):
    try:
        alpha1 = float(args.alpha1)
    except ValueError:
        raise DomainError(f"--alpha1 must be a number, got {args.alpha1!r}") from None
    table = predict_table(args.sigma, alpha1, s_list=args.s_list,
                          exponent_list=args.exponents,
                          label=f"predicted_s{args.sigma:g}_a{args.alpha1}")
    sys.stdout.write(table.to_tsv())
    return EXIT_OK


def cmd_verify(args):
    if args.suite == "kernel":
        result = verify.kernel_suite()
    elif args.suite == "mslln":
        result = verify.mslln_suite(seed=args.seed)
    else:
        result = verify.tensor_suite(seed=args.seed)
    if args.out:
        with _run_directory(args) as out:
            result.to_tsv(os.path.join(out, f"{args.suite}_checks.tsv"))
            for name, report in result.reports.items():
                report.to_tsv(os.path.join(out, f"{args.suite}_{name}.tsv"))
    for r in result.rows:
        sys.stdout.write(f"{'pass' if r.passed else 'FAIL'}\t{r.name}\t"
                         f"{r.value:.6g} {r.comparison} {r.limit:.6g}\n")
    return EXIT_OK if result.passed else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="marcz",
        description="Long-range dependence and heavy-tail diagnostics via "
                    "Marcinkiewicz normalized partial sums.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a linear-process ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="verdict table for a price CSV or returns file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="Yahoo-format price CSV")
    src.add_argument("--returns-csv", help="one-column CSV of returns")
    p.add_argument("--column", help="price column of --input (default: Adj Close)")
    p.add_argument("--label")
    p.add_argument("--full-series", action="store_true",
                   help="skip the fixed 2601-point window selection of --input")
    p.add_argument("--s-list", type=_parse_int_list, default=DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=DEFAULT_EXPONENTS)
    p.add_argument("--proportional", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="invert a verdict table into (sigma, alpha_1)")
    p.add_argument("--table", required=True, help="verdict table TSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table-predict", help="forward-model a verdict table")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha1", default="inf")
    p.add_argument("--s-list", type=_parse_int_list, default=DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=DEFAULT_EXPONENTS)
    p.set_defaults(func=cmd_table_predict)

    p = sub.add_parser("verify", help="run a numeric verification suite")
    p.add_argument("--suite", choices=("kernel", "mslln", "tensor"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.returns_csv:
        for flag, on in (("--column", args.column is not None),
                         ("--full-series", args.full_series)):
            if on:
                parser.error(f"argument {flag}: not allowed with argument --returns-csv")
        # a pipe's name (/dev/fd/63) is no label for its verdict table
        if (args.label is None and os.path.exists(args.returns_csv)
                and not os.path.isfile(args.returns_csv)):
            parser.error("argument --label: required when --returns-csv is not a regular file")
    elif args.command == "analyze" and args.column is None:
        args.column = "Adj Close"  # manifest.json records the column read
    try:
        return args.func(args)
    except (MarczError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
