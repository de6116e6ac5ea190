"""Command-line front end: simulate, analyze, estimate, table-predict, verify."""

import argparse
import itertools
import json
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone

# every submodule runs on its first attribute access (see marcz/__init__.py):
# reach them as module attributes at run time, so that a command loads only
# what it uses, and estimate and table-predict never load numpy
from . import (__version__, errors, ingest, innovations, kernel, linproc, rates, statistic,
               tables, verify)

EXIT_OK = 0
EXIT_DATA = 3
EXIT_VERIFY = 4


@contextmanager
def _run_directory(args):
    """Build the block's files and manifest.json in a fresh sibling of
    `args.out`, then rename it onto `args.out`; a failure removes the sibling.
    `main` refuses a non-empty `args.out`, or the working directory, before
    the work, and the rename refuses one that appeared since."""
    out = os.path.abspath(args.out)
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
        raise errors.ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise errors.ConfigurationError(f"{path}: top level must be a JSON object")
    number = innovations.config_number
    try:
        for key in raw:
            if key not in ("s", "sigma", "center_value", "window", "innovation", "sharing",
                           "n"):
                raise errors.ConfigurationError(f"unknown key {key!r}")
        s = number(raw.get("s", 1), "s", int)
        # one sigma for every factor, or a list of one per factor
        sigma = raw["sigma"]
        if type(sigma) is not list:
            sigma = [number(sigma, "sigma")] * s
        elif len(sigma) != s:
            raise errors.ConfigurationError(f"key 'sigma' must be a number or a list of "
                                            f"s = {s} numbers, got {sigma!r}")
        center_value = number(raw.get("center_value", 1.0), "center_value")
        window = number(raw.get("window", linproc.DEFAULT_WINDOW), "window", int)
        coeffs = tuple(kernel.CoefficientSpec(sigma=number(sg, "sigma"),
                                              center_value=center_value, window=window)
                       for sg in sigma)
        return linproc.ProcessConfig(
            s=s, coeffs=coeffs, innov=innovations.spec_from_config(raw["innovation"]),
            sharing=raw.get("sharing", "shared"), length=number(raw["n"], "n", int),
            window=window)
    except KeyError as exc:
        raise errors.ConfigurationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.ConfigurationError(f"{path}: {exc}") from None


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
    """The values of a one-column returns CSV below its header line. Blank
    lines may end the file but not stand among the values."""
    import numpy as np

    try:
        with open(path) as fh, warnings.catch_warnings():
            # numpy warns on a file without data rows; it is refused below
            warnings.simplefilter("ignore", UserWarning)
            header = fh.readline()
            # the lines up to the first blank one; no comment character, so a
            # "#N/A" cell is refused, not skipped
            values = np.loadtxt(itertools.takewhile(str.strip, fh), delimiter=",",
                                ndmin=1, comments=None)
            blank_inside = any(map(str.strip, fh))
    except ValueError as exc:  # a cell that is not a number, or text that is not UTF-8
        raise errors.SchemaError(f"{path}: {exc}") from None
    if blank_inside:
        raise errors.SchemaError(f"{path}: line {len(values) + 2} is blank")
    if not len(values):
        raise errors.EmptyDataError(f"{path}: no data rows")
    try:
        float(header)
    except ValueError:
        return values
    raise errors.SchemaError(f"{path}: first line {header.strip()!r} is a number, not a header")


def _analysis_input(args):
    """The returns to grid, and their label: --label, else the file's name."""
    if args.returns_csv is not None:
        path, values = args.returns_csv, _read_returns(args.returns_csv)
    else:
        path = args.input
        values = ingest.select_window(ingest.log_returns(ingest.load_prices(path)))
    return values, args.label or os.path.basename(path)


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
    from dataclasses import asdict

    sys.stdout.write(json.dumps({t.label: asdict(rates.estimate_parameters(t))
                                 for t in tables.tables_from_tsv(args.table)}, indent=2) + "\n")
    return EXIT_OK


def cmd_table_predict(args):
    try:
        alpha1 = float(args.alpha1)
    except ValueError:
        raise errors.DomainError(f"--alpha1 must be a number, got {args.alpha1!r}") from None
    table = rates.predict_table(args.sigma, alpha1, s_list=args.s_list,
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
    if args.out is not None:
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
    src.add_argument("--input", help="Yahoo-format price CSV: Adj Close, 2601-point window")
    src.add_argument("--returns-csv", help="one-column CSV of returns")
    p.add_argument("--label", help="label of the verdict table (default: the file's name)")
    p.add_argument("--s-list", type=_parse_int_list, default=tables.DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=tables.DEFAULT_EXPONENTS)
    p.add_argument("--proportional", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="invert a verdict table into (sigma, alpha_1)")
    p.add_argument("--table", required=True, help="verdict table TSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table-predict", help="forward-model a verdict table")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha1", default="inf")
    p.add_argument("--s-list", type=_parse_int_list, default=tables.DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=tables.DEFAULT_EXPONENTS)
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
    if args.command == "analyze" and not args.label:
        # a pipe's name (/dev/fd/63) is no label for its verdict table
        flag, path = (("--input", args.input) if args.returns_csv is None
                      else ("--returns-csv", args.returns_csv))
        if os.path.exists(path) and not os.path.isfile(path):
            parser.error(f"argument --label: required when {flag} is not a regular file")
    try:
        out = getattr(args, "out", None)
        if out is not None and os.path.realpath(out) == os.path.realpath(os.curdir):
            # the rename would replace the caller's working directory
            raise errors.ConfigurationError(f"--out {out!r} is the working directory")
        if out and os.path.lexists(out) and (not os.path.isdir(out) or os.listdir(out)):
            raise errors.ConfigurationError(f"--out {out}: exists and is not an empty directory")
        return args.func(args)
    except (errors.MarczError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
