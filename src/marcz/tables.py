"""Verdict grids as plain data: the C/D cells, their TSV and JSON forms, and
the TSV reader. Needs no numpy, so commands that only read or forward-model
a grid (estimate, table-predict) never load it."""

import json
import numbers
from dataclasses import dataclass, field

from .errors import ConfigurationError

DEFAULT_S_LIST = (1, 2, 3)
DEFAULT_EXPONENTS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class Verdict:
    outcome: str
    mean_whole: float = float("nan")
    mean_half: float = float("nan")
    mean_quarter: float = float("nan")
    ratios: tuple = (float("nan"), float("nan"))

    @property
    def letter(self):
        return "C" if self.outcome == "Converges" else "D"


@dataclass
class VerdictTable:
    label: str
    s_list: tuple
    exponent_list: tuple
    cells: dict = field(default_factory=dict)  # (s, exponent) -> Verdict
    # (s, exponent) -> MarcTrace, filled by verdict_table(collect_traces=True)
    traces: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        # exponents must differ as written (%g): TSV header, trace file names
        s_list, exps = self.s_list, self.exponent_list
        if not (s_list and exps and len(set(s_list)) == len(s_list)
                and len({f"{e:g}" for e in exps}) == len(exps)
                and all(isinstance(s, numbers.Integral) and s >= 1 for s in s_list)
                and all(0.0 < e <= 1.0 for e in exps)):
            raise ConfigurationError(
                "grid needs distinct integer s >= 1 and distinct exponents in (0,1], "
                f"got s {s_list} and exponents {exps}")
        if {"\t", "\n", "\r"} & set(self.label):  # the TSV could not be read back
            raise ConfigurationError(f"label {self.label!r} holds a tab or a line break")

    def outcome(self, s, e):
        return self.cells[(s, e)].letter

    def row(self, s):
        return [self.outcome(s, e) for e in self.exponent_list]

    def to_tsv(self):
        lines = ["label\ts\t" + "\t".join(f"{e:g}" for e in self.exponent_list)]
        for s in self.s_list:
            lines.append(f"{self.label}\t{s}\t" + "\t".join(self.row(s)))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({
            "label": self.label,
            "s_list": list(self.s_list),
            "exponents": list(self.exponent_list),
            "cells": [
                {"s": s, "exponent": e, "outcome": v.outcome,
                 "mean_whole": v.mean_whole, "mean_half": v.mean_half,
                 "mean_quarter": v.mean_quarter, "ratios": list(v.ratios)}
                for (s, e), v in sorted(self.cells.items())
            ],
        }, indent=2)


def tables_from_tsv(path):
    """Parse one or more verdict tables from the TSV layout written above."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        return _parse_tables(lines)
    except (UnicodeDecodeError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _parse_tables(lines):
    if len(lines) < 2:
        raise ConfigurationError("no verdict rows")
    header = lines[0].split("\t")
    if header[:2] != ["label", "s"]:
        raise ConfigurationError("verdict table must start with 'label\\ts' columns")
    try:
        exponents = tuple(float(v) for v in header[2:])
    except ValueError:
        raise ConfigurationError(f"non-numeric exponent in header {header[2:]}") from None
    grouped = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        label, s = parts[0], parts[1] if len(parts) > 1 else ""
        letters = [v.upper() for v in parts[2:]]
        if not s.isdecimal():  # isdigit() also passes '²', which int() rejects
            raise ConfigurationError(f"row for {label}: s must be an integer, got {s!r}")
        s = int(s)
        if len(letters) != len(exponents) or not set(letters) <= {"C", "D"}:
            raise ConfigurationError(
                f"row for {label} s={s} needs {len(exponents)} C/D cells")
        rows = grouped.setdefault(label, {})
        if s in rows:
            raise ConfigurationError(f"duplicate row for {label} s={s}")
        rows[s] = letters
    out = []
    for label, rows in grouped.items():
        table = VerdictTable(label=label, s_list=tuple(sorted(rows)),
                             exponent_list=exponents)
        for s, letters in rows.items():
            for e, letter in zip(exponents, letters):
                outcome = "Converges" if letter == "C" else "Diverges"
                table.cells[(s, e)] = Verdict(outcome=outcome)
        out.append(table)
    return out
