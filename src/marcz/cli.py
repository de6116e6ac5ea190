"""Command-line front end: simulate, analyze, estimate, table-predict, verify."""

import argparse
import json
import os
import sys
import warnings
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
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


def _write_manifest(out_dir, command, args, seeds):
    manifest = {
        "tool": "marcz",
        "version": __version__,
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "seeds": seeds,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(","))


def _parse_int_list(text):
    return tuple(int(v) for v in text.split(","))


def _int_key(raw, key, default=None):
    """raw[key], or `default` when given and the key is absent, which must be
    a JSON integer: a float, a string or a boolean is rejected."""
    value = raw[key] if default is None else raw.get(key, default)
    if type(value) is not int:
        raise ConfigurationError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _load_process_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    try:
        s = _int_key(raw, "s", 1)
        sigmas = raw.get("sigmas") or [raw["sigma"]] * s
        window = _int_key(raw, "window", linproc.DEFAULT_WINDOW)
        coeffs = tuple(
            kernel.CoefficientSpec(sigma=float(sg), scale=float(raw.get("scale", 1.0)),
                                   center_value=float(raw.get("center_value", 1.0)),
                                   window=window)
            for sg in sigmas)
        return linproc.ProcessConfig(
            s=s, coeffs=coeffs, innov=innovations.spec_from_config(raw["innovation"]),
            sharing=raw.get("sharing", "shared"), length=_int_key(raw, "n"),
            window=window)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def cmd_simulate(args):
    config = _load_process_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    ens = linproc.simulate_paths(config, args.seed)
    for w in ens.warnings:
        sys.stderr.write(f"warning: {w}\n")
    linproc.ensemble_to_binary(ens, os.path.join(args.out, "ensemble.bin"),
                               os.path.join(args.out, "ensemble.json"))
    _write_manifest(args.out, "simulate", args, [args.seed])
    return EXIT_OK


def _analysis_input(args):
    if args.returns_csv:
        import numpy as np

        with warnings.catch_warnings():
            # numpy warns, rather than fails, on a file without data rows
            warnings.simplefilter("error", UserWarning)
            try:
                values = np.loadtxt(args.returns_csv, skiprows=1, delimiter=",", ndmin=1)
            except UserWarning:
                raise EmptyDataError(f"{args.returns_csv}: no data rows") from None
            except ValueError as exc:
                raise SchemaError(f"{args.returns_csv}: {exc}") from None
        label = args.label or os.path.basename(args.returns_csv)
        return values, label
    series = ingest.load_prices(args.input, column_name=args.column, label=args.label)
    returns = ingest.log_returns(series)
    if not args.full_series:
        returns = ingest.select_window(returns)
    return returns, series.label


def _write_traces(jobs):
    """Run `trace.to_csv(path)` for every (path, trace) of `jobs`, spread in
    stride shares over up to one process per usable CPU.

    The parent writes share 0 and forks one child per other share; a child
    reports its first failure through a pipe and ends with os._exit, so it
    never returns into the caller or flushes the parent's buffers. Without
    os.fork or os.sched_getaffinity the one share runs in-process. Raises
    the parent's own error, else the first child's, once every child is
    reaped.
    """
    cpus = (os.sched_getaffinity(0)
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else (0,))
    workers = max(1, min(len(cpus), len(jobs)))
    children, failures = [], []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork in a threaded process, and
                # numpy's idle BLAS pool counts; the child only formats text
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for path, trace in jobs[w::workers]:
                        trace.to_csv(path)
                    status = 0
                except Exception as exc:
                    os.write(write_fd, str(exc).encode())
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        for path, trace in jobs[::workers]:
            trace.to_csv(path)
    finally:
        for pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                message = pipe.read().decode()
            status = os.waitpid(pid, 0)[1]
            if status:
                failures.append(message or
                                f"trace writer process {pid} ended with wait status {status}")
    if failures:
        raise OSError(failures[0])


def cmd_analyze(args):
    values, label = _analysis_input(args)
    os.makedirs(args.out, exist_ok=True)
    cfg = statistic.RunningMeanConfig(epsilon=args.epsilon, rho=args.rho, start=args.start)
    table = statistic.verdict_table(values, args.s_list, args.exponents, cfg,
                                    label=label, proportional=args.proportional,
                                    collect_traces=True)
    _write_traces([(os.path.join(args.out, f"trace_s{s}_e{e:g}.csv"), tr)
                   for (s, e), tr in table.traces.items()])
    with open(os.path.join(args.out, "verdicts.json"), "w") as fh:
        fh.write(table.to_json())
    _write_manifest(args.out, "analyze", args, [])
    sys.stdout.write(table.to_tsv(os.path.join(args.out, "verdicts.tsv")))
    return EXIT_OK


def cmd_estimate(args):
    out = {t.label: json.loads(estimate_parameters(t).to_json())
           for t in tables_from_tsv(args.table)}
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_table_predict(args):
    try:
        alpha1 = float(args.alpha1)
    except ValueError:
        raise DomainError(f"--alpha1 must be a number, got {args.alpha1!r}") from None
    table = predict_table(args.sigma, alpha1, s_list=args.s_list,
                          exponent_list=args.exponents,
                          label=f"predicted_s{args.sigma:g}_a{args.alpha1}")
    sys.stdout.write(table.to_tsv(args.out))
    return EXIT_OK


def cmd_verify(args):
    if args.suite == "kernel":
        result = verify.kernel_suite(radius=args.radius)
    elif args.suite == "mslln":
        result = verify.mslln_suite(seed=args.seed, reps=args.reps, n=args.length)
    else:
        result = verify.tensor_suite(seed=args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        result.to_tsv(os.path.join(args.out, f"{args.suite}_checks.tsv"))
        for name, report in result.reports.items():
            report.to_tsv(os.path.join(args.out, f"{args.suite}_{name}.tsv"))
        _write_manifest(args.out, "verify", args, [args.seed])
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
    p.add_argument("--column", default="Adj Close")
    p.add_argument("--label")
    p.add_argument("--full-series", action="store_true",
                   help="skip the fixed 2601-point window selection")
    p.add_argument("--s-list", type=_parse_int_list, default=DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=DEFAULT_EXPONENTS)
    p.add_argument("--epsilon", type=float, default=0.005)
    p.add_argument("--rho", type=float, default=0.005)
    p.add_argument("--start", type=int, default=601)
    p.add_argument("--proportional", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="invert a verdict table into (sigma, alpha_1)")
    p.add_argument("--table", required=True, help="verdict table TSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table-predict", help="forward-model a verdict table")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--alpha1", default="inf")
    p.add_argument("--s-list", type=_parse_int_list, default=DEFAULT_S_LIST)
    p.add_argument("--exponents", type=_parse_float_list, default=DEFAULT_EXPONENTS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_table_predict)

    p = sub.add_parser("verify", help="run a numeric verification suite")
    p.add_argument("--suite", choices=("kernel", "mslln", "tensor"), required=True)
    p.add_argument("--radius", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=32)
    p.add_argument("--length", type=int, default=2 ** 16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MarczError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
